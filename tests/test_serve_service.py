"""Tests for the ProfileService facade: correctness under concurrency,
hot-swap version consistency, caching, volumes, and admission."""

import queue
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    ProfileService,
    ServeDegradePolicy,
    ShedRequest,
)
from tests.conftest import build_frozen_profile


@pytest.fixture(scope="module")
def frozen_and_totals():
    return build_frozen_profile()


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def _counter(svc, family):
    [series] = svc.metrics.registry.to_dict()[family]["series"]
    return series["value"]


@pytest.fixture()
def service(frozen_and_totals):
    frozen, _ = frozen_and_totals
    with ProfileService(frozen, max_batch=16, n_workers=2,
                        max_queue_depth=512) as svc:
        yield svc


class TestSequentialCorrectness:
    def test_classify_matches_direct_vote(self, service, frozen_and_totals):
        frozen, _ = frozen_and_totals
        result = service.classify(frozen.features)
        assert np.array_equal(result.labels, frozen.vote(frozen.features))
        assert result.version == 1
        assert result.n_vectors == frozen.features.shape[0]

    def test_single_vector_query(self, service, frozen_and_totals):
        frozen, _ = frozen_and_totals
        result = service.classify(frozen.features[3:4])
        assert result.labels.tolist() == [int(frozen.vote(
            frozen.features[3:4])[0])]

    def test_volumes_match_transform_then_vote(self, service,
                                               frozen_and_totals):
        frozen, totals = frozen_and_totals
        result = service.classify_volumes(totals[:9])
        expected = frozen.vote(frozen.rsca_of_volumes(totals[:9]))
        assert np.array_equal(result.labels, expected)

    def test_width_mismatch_rejected(self, service):
        with pytest.raises(ValueError, match="columns"):
            service.classify(np.zeros((2, 5)))

    def test_no_profile_loaded(self):
        with ProfileService() as empty:
            with pytest.raises(RuntimeError, match="no profile loaded"):
                empty.classify(np.zeros((1, 12)))


class TestCaching:
    def test_repeat_queries_hit_cache(self, service, frozen_and_totals):
        frozen, _ = frozen_and_totals
        block = frozen.features[:10]
        first = service.classify(block)
        second = service.classify(block)
        assert first.n_cached == 0
        assert second.n_cached == 10
        assert np.array_equal(first.labels, second.labels)
        assert service.metrics.count("cache_hits") >= 10

    def test_cache_disabled(self, frozen_and_totals):
        frozen, _ = frozen_and_totals
        with ProfileService(frozen, cache_size=0) as svc:
            svc.classify(frozen.features[:5])
            result = svc.classify(frozen.features[:5])
            assert result.n_cached == 0

    def test_float_jitter_below_quantum_still_hits(self, service,
                                                   frozen_and_totals):
        frozen, _ = frozen_and_totals
        row = frozen.features[7:8]
        service.classify(row)
        result = service.classify(row + 1e-9)
        assert result.n_cached == 1

    def test_classify_takes_the_cache_lock_at_most_twice(
            self, frozen_and_totals):
        # One lookup pass and one store pass per request, not one per row.
        frozen, _ = frozen_and_totals
        with ProfileService(frozen, n_workers=1) as svc:
            lock = svc.cache._lock = _CountingLock()
            svc.classify(frozen.features[:4])
            assert lock.acquired <= 2
            lock.acquired = 0
            assert svc.classify(frozen.features[:4]).n_cached == 4
            assert lock.acquired <= 2

    def test_reload_invalidates_by_version_key(self, frozen_and_totals):
        frozen, _ = frozen_and_totals
        shifted, _ = build_frozen_profile(label_shift=10)
        with ProfileService(frozen) as svc:
            svc.classify(frozen.features[:5])
            svc.reload(shifted)
            result = svc.classify(frozen.features[:5])
            # Same vectors, new version: cache must not leak old labels.
            assert result.n_cached == 0
            assert result.version == 2
            assert np.array_equal(
                result.labels, shifted.vote(frozen.features[:5])
            )


class TestConcurrencyCorrectness:
    def test_threaded_mixed_queries_match_sequential_answers(
            self, frozen_and_totals):
        """Acceptance: N threads, mixed queries, zero drops, exact labels."""
        frozen, totals = frozen_and_totals
        expected_vectors = frozen.vote(frozen.features)
        expected_volumes = frozen.vote(frozen.rsca_of_volumes(totals))

        n_threads = 8
        queries_per_thread = 40
        failures = []
        completed = [0] * n_threads

        with ProfileService(frozen, max_batch=16, n_workers=4,
                            max_queue_depth=4096, cache_size=256) as svc:
            barrier = threading.Barrier(n_threads)

            def worker(thread_index):
                rng = np.random.default_rng(thread_index)
                barrier.wait()
                for _ in range(queries_per_thread):
                    row = int(rng.integers(0, frozen.features.shape[0]))
                    span = int(rng.integers(1, 5))
                    stop = min(row + span, frozen.features.shape[0])
                    try:
                        if rng.random() < 0.5:
                            result = svc.classify(
                                frozen.features[row:stop], timeout=30.0
                            )
                            reference = expected_vectors[row:stop]
                        else:
                            result = svc.classify_volumes(
                                totals[row:stop], timeout=30.0
                            )
                            reference = expected_volumes[row:stop]
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append((thread_index, repr(exc)))
                        continue
                    if not np.array_equal(result.labels, reference):
                        failures.append(
                            (thread_index,
                             f"labels {result.labels} != {reference}")
                        )
                    completed[thread_index] += 1

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)

        assert not failures, failures[:5]
        assert completed == [queries_per_thread] * n_threads
        # The load was concurrent enough that batching actually happened.
        [batches] = svc.metrics.registry.to_dict()["repro_serve_batch_rows"]["series"]
        assert batches["count"] > 0
        assert svc.metrics.count("shed_requests") == 0


class TestHotSwap:
    def test_reload_mid_traffic_is_version_consistent(self, frozen_and_totals):
        """Acceptance: no mixed-version answers, no in-flight errors."""
        frozen_a, _ = frozen_and_totals
        frozen_b, _ = build_frozen_profile(label_shift=10)
        expected = {
            1: frozen_a.vote(frozen_a.features),
            2: frozen_b.vote(frozen_a.features),
        }
        # The label spaces are disjoint (shift 10), so any mixed-version
        # answer is detectable row by row.
        assert set(np.unique(expected[1])).isdisjoint(np.unique(expected[2]))

        stop_flag = threading.Event()
        failures = []
        answered = [0]

        with ProfileService(frozen_a, max_batch=8, n_workers=2,
                            max_queue_depth=4096, cache_size=512) as svc:

            def traffic(seed):
                rng = np.random.default_rng(seed)
                while not stop_flag.is_set():
                    row = int(rng.integers(0, frozen_a.features.shape[0] - 4))
                    block = frozen_a.features[row:row + 4]
                    try:
                        result = svc.classify(block, timeout=30.0)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(repr(exc))
                        return
                    if result.version not in expected:
                        failures.append(f"unknown version {result.version}")
                        return
                    if not np.array_equal(
                            result.labels, expected[result.version][row:row + 4]
                    ):
                        failures.append(
                            f"mixed/mismatched answer at version "
                            f"{result.version}: {result.labels}"
                        )
                        return
                    answered[0] += 1

            threads = [
                threading.Thread(target=traffic, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)
            version = svc.reload(frozen_b, drain_timeout=5.0)
            assert version == 2
            time.sleep(0.15)
            stop_flag.set()
            for thread in threads:
                thread.join(30.0)

            assert not failures, failures[:5]
            assert answered[0] > 0
            # The displaced version fully drained.
            assert svc.registry.drain(1, timeout=5.0)
            # Traffic continued on the new version after the swap.
            late = svc.classify(frozen_a.features[:4])
            assert late.version == 2
            assert np.array_equal(late.labels, expected[2][:4])

    def test_shed_reclassify_counts_as_shed_not_error(self):
        # A reload lands between the cache pass and the batch, so the
        # answer is re-classified whole; the queue is full at that moment,
        # so the re-submission is shed and must be counted as such.
        frozen_a, _ = build_frozen_profile(n_antennas=60)
        frozen_b, _ = build_frozen_profile(n_antennas=60, label_shift=10)
        permits = threading.Semaphore(0)
        entered = queue.Queue()
        for frozen in (frozen_a, frozen_b):
            kernel = frozen.kernel()

            def gated_vote(features, vote=kernel.vote):
                entered.put(features.shape[0])
                permits.acquire(timeout=10.0)
                return vote(features)

            kernel.vote = gated_vote  # instance attribute shadows the method
        features = frozen_a.features
        with ProfileService(frozen_a, max_batch=1, n_workers=1,
                            max_queue_depth=1) as svc:
            permits.release()
            svc.classify(features[0:1], timeout=10.0)  # row 0 cached at v1
            entered.get(timeout=5.0)
            blocker = svc.submit(features[5:6])
            entered.get(timeout=5.0)          # the worker holds v1's vote
            pending = svc.submit(features[0:2])  # row 0 hit, row 1 queued
            assert svc.reload(frozen_b, drain_timeout=None) == 2
            permits.release()
            entered.get(timeout=5.0)          # row 1 now votes at v2
            others = [svc.submit(features[6:7])]
            permits.release()
            entered.get(timeout=5.0)          # the worker holds row 6
            others.append(svc.submit(features[7:8]))  # the queue is full
            with pytest.raises(ShedRequest):
                pending.result(timeout=10.0)
            assert svc.metrics.count("shed_requests") == 1
            assert svc.metrics.count("errors") == 0
            for _ in range(4):
                permits.release()
            blocker.result(timeout=10.0)
            for handle in others:
                assert handle.result(timeout=10.0).version == 2


class TestAdmissionControl:
    def test_shed_surfaces_and_counts(self):
        # A dedicated profile whose kernel vote (the path the worker
        # calls) blocks until released, so the queue reliably fills to the
        # watermark behind the one busy worker.
        frozen, _ = build_frozen_profile(n_antennas=60)
        entered, release = threading.Event(), threading.Event()
        kernel = frozen.kernel()
        original_vote = kernel.vote

        def slow_vote(features):
            entered.set()
            release.wait(10.0)
            return original_vote(features)

        kernel.vote = slow_vote  # instance attribute shadows the method
        with ProfileService(frozen, max_batch=1, n_workers=1,
                            max_queue_depth=2, cache_size=0) as svc:
            pending = [svc.submit(frozen.features[:1])]
            assert entered.wait(5.0), "the worker never reached the vote"
            pending.append(svc.submit(frozen.features[1:2]))
            pending.append(svc.submit(frozen.features[2:3]))
            with pytest.raises(ShedRequest) as excinfo:
                svc.submit(frozen.features[3:4])
            assert excinfo.value.retry_after > 0
            assert svc.metrics.count("shed_requests") == 1
            [shed] = svc.metrics.registry.to_dict()[
                "repro_serve_shed_requests_total"]["series"]
            assert shed["value"] == 1
            release.set()
            for handle in pending:
                handle.result(timeout=10.0)


class TestMetricsSnapshot:
    def test_snapshot_contents(self, service, frozen_and_totals):
        frozen, _ = frozen_and_totals
        service.classify(frozen.features[:8])
        service.classify(frozen.features[:8])
        snapshot = service.metrics_snapshot()
        assert snapshot["profile_version"] == 1
        assert snapshot["counters"]["requests"] == 2
        assert snapshot["counters"]["vectors_classified"] == 16
        assert snapshot["counters"]["cache_hits"] >= 8
        assert snapshot["derived"]["cache_hit_rate"] == pytest.approx(0.5)
        assert snapshot["queue_depth"] == 0

    def test_cache_hit_rate_reads_the_registry_counters(
            self, frozen_and_totals):
        frozen, _ = frozen_and_totals
        for cache_size, hits, misses in ((64, 3, 9), (0, 0, 12)):
            with ProfileService(frozen, n_workers=1,
                                cache_size=cache_size) as svc:
                svc.classify(frozen.features[:6])
                svc.classify(frozen.features[3:9])
                snapshot = svc.metrics_snapshot()
                assert _counter(svc, "repro_serve_cache_hits_total") == hits
                assert _counter(svc, "repro_serve_cache_misses_total") \
                    == misses
                assert snapshot["derived"]["cache_hit_rate"] == \
                    pytest.approx(hits / (hits + misses))

    def test_errors_counted(self, service):
        with pytest.raises(ValueError):
            service.classify(np.zeros((1, 5)))
        # Validation errors occur before submission; error counter tracks
        # failures of accepted requests, so nothing was recorded here.
        assert service.metrics.count("requests") == 0


class _BrokenKernel:
    def __init__(self, error=RuntimeError):
        self.error = error

    def vote(self, features):
        raise self.error("kernel exploded")

    def rsca_of_volumes(self, volumes):
        raise RuntimeError("kernel exploded")


class TestCompiledKernelRouting:
    """The tentpole serving path: batches vote through the fused kernel."""

    def test_batches_route_through_kernel(self, frozen_and_totals):
        frozen, _ = frozen_and_totals
        with ProfileService(frozen, max_batch=16, n_workers=1,
                            cache_size=0) as svc:
            queries = frozen.features[:20]
            result = svc.classify(queries)
            assert np.array_equal(result.labels, frozen.vote(queries))
            family = svc.metrics.registry.get("repro_stage_seconds")
            assert family is not None
            assert family.labels(stage="serve.kernel_vote").count >= 1

    def test_ledger_series_hold_observations(self, frozen_and_totals):
        # The serve benchmarks read these names from the registry export;
        # a renamed span or family reads as 0 there, so pin each here.
        frozen, _ = frozen_and_totals
        with ProfileService(frozen, max_batch=16, n_workers=1) as svc:
            svc.classify(frozen.features[:4])
            svc.classify(frozen.features[:4])
            export = svc.metrics.registry.to_dict()

        def series(family, **labels):
            [match] = [s for s in export[family]["series"]
                       if s["labels"] == labels]
            return match

        for stage in ("serve.vote", "serve.kernel_vote"):
            assert series("repro_stage_seconds", stage=stage)["count"] >= 1
        for family in ("repro_serve_request_latency_seconds",
                       "repro_serve_queue_wait_seconds",
                       "repro_serve_batch_assembly_seconds",
                       "repro_serve_batch_rows"):
            assert series(family)["count"] >= 1, family
        assert series("repro_serve_cache_misses_total")["value"] == 4
        assert series("repro_serve_cache_hits_total")["value"] == 4
        assert series("repro_serve_shed_requests_total")["value"] == 0

    def test_kernel_failure_degrades_under_policy(self):
        frozen, _ = build_frozen_profile(seed=11)
        frozen._kernel = _BrokenKernel()
        queries = frozen.features[:10]
        with ProfileService(frozen, max_batch=16, n_workers=1, cache_size=0,
                            degrade=ServeDegradePolicy()) as svc:
            result = svc.classify(queries)
            assert result.degraded
            assert np.array_equal(result.labels,
                                  frozen.nearest_centroids(queries))

    def test_any_non_input_kernel_error_degrades(self):
        frozen, _ = build_frozen_profile(seed=11)
        frozen._kernel = _BrokenKernel(IndexError)
        with ProfileService(frozen, max_batch=16, n_workers=1, cache_size=0,
                            degrade=ServeDegradePolicy()) as svc:
            assert svc.classify(frozen.features[:3]).degraded

    def test_kernel_failure_raises_without_policy(self):
        frozen, _ = build_frozen_profile(seed=11)
        frozen._kernel = _BrokenKernel()
        with ProfileService(frozen, max_batch=16, n_workers=1,
                            cache_size=0) as svc:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                svc.classify(frozen.features[:10])

    def test_volume_queries_use_fused_transform(self, frozen_and_totals):
        frozen, totals = frozen_and_totals
        with ProfileService(frozen, max_batch=16, n_workers=1,
                            cache_size=0) as svc:
            volumes = totals[:12]
            result = svc.classify_volumes(volumes)
            expected = frozen.vote(frozen.rsca_of_volumes(volumes))
            assert np.array_equal(result.labels, expected)
            family = svc.metrics.registry.get("repro_stage_seconds")
            assert family.labels(stage="serve.rsca_transform").count >= 1

    def test_broken_volume_kernel_raises(self):
        # The transform runs before admission, so there are no features
        # to degrade with: a failing kernel fails the request loudly.
        frozen, totals = build_frozen_profile(seed=12)
        frozen._kernel = _BrokenKernel()
        with ProfileService(frozen, max_batch=16, n_workers=1, cache_size=0,
                            degrade=ServeDegradePolicy()) as svc:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                svc.classify_volumes(totals[:6])