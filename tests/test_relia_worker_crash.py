"""A worker killed mid-flight never silently drops a request.

Every in-flight request held by a crashing worker is either requeued and
answered by a surviving/replacement worker, failed with a typed
:class:`WorkerCrash` (so its caller unblocks with a diagnosis), or — at
the service level with a degrade policy — answered from the
nearest-centroid fallback marked ``degraded=true``.
"""

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry, get_registry, set_registry
from repro.relia import FaultPlan, WorkerCrash, inject
from repro.serve import (
    MicroBatcher,
    ProfileService,
    ServeDegradePolicy,
    ServeMetrics,
)
from tests.conftest import build_frozen_profile

WAIT_S = 5.0


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = get_registry()
    registry = MetricsRegistry()
    set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture(scope="module")
def frozen():
    profile, _totals = build_frozen_profile(n_antennas=40, n_services=6,
                                            n_clusters=3)
    return profile


def echo_classify(features):
    return features[:, 0].astype(np.int64), 1


def test_crashed_workers_requeue_inflight_requests(fresh_registry):
    plan = FaultPlan().add("serve.worker", "crash", times=2)
    with inject(plan):
        with MicroBatcher(echo_classify, n_workers=2,
                          max_item_retries=3) as batcher:
            items = [
                batcher.submit(np.array([[float(k), 0.0]]))
                for k in range(8)
            ]
            answers = [batcher.wait(item, timeout=WAIT_S) for item in items]
    # Every request was answered correctly despite two worker deaths.
    for k, (labels, version) in enumerate(answers):
        assert labels.tolist() == [k]
        assert version == 1
    assert plan.injected_total("serve.worker", "crash") == 2
    assert batcher.crash_count() == 2
    crashes = fresh_registry.get("repro_worker_crashes_total")
    assert crashes.value == 2


def test_pool_respawns_to_full_strength(frozen):
    plan = FaultPlan().add("serve.worker", "crash", times=2)
    with inject(plan):
        with MicroBatcher(echo_classify, n_workers=2) as batcher:
            for k in range(6):
                item = batcher.submit(np.array([[float(k), 0.0]]))
                batcher.wait(item, timeout=WAIT_S)
            assert batcher.alive_workers() == 2
    # Outside the plan the pool keeps serving normally.
    assert batcher.crash_count() == 2


def test_exhausted_retries_fail_typed_never_hang():
    # Every worker crashes on every batch, and a request may ride along
    # with zero retries — its waiter must unblock with WorkerCrash, not
    # wait forever on a silently dropped request.
    plan = FaultPlan().add("serve.worker", "crash", times=None)
    with inject(plan):
        with MicroBatcher(echo_classify, n_workers=2,
                          max_item_retries=0) as batcher:
            item = batcher.submit(np.array([[7.0, 0.0]]))
            with pytest.raises(WorkerCrash, match="abandoned"):
                batcher.wait(item, timeout=WAIT_S)


def test_service_degrades_instead_of_failing(frozen, fresh_registry):
    # With a degrade policy, a service whose pool keeps crashing answers
    # every query from the nearest-centroid path, marked degraded.
    plan = FaultPlan().add("serve.worker", "crash", times=None)
    queries = frozen.features[:5]
    expected = frozen.nearest_centroids(queries)
    with inject(plan):
        with ProfileService(
            frozen, n_workers=2, cache_size=0,
            metrics=ServeMetrics(registry=fresh_registry),
            degrade=ServeDegradePolicy(failure_threshold=1,
                                       reset_timeout_s=60.0),
            max_item_retries=1,
        ) as service:
            results = [service.classify(queries, timeout=WAIT_S)
                       for _ in range(3)]
    for result in results:
        assert result.degraded
        np.testing.assert_array_equal(result.labels, expected)
    degraded = fresh_registry.get("repro_degraded_answers_total")
    assert degraded.value == len(results)


def test_service_without_degrade_policy_raises_typed(frozen):
    plan = FaultPlan().add("serve.worker", "crash", times=None)
    with inject(plan):
        with ProfileService(frozen, n_workers=2, cache_size=0,
                            max_item_retries=1) as service:
            with pytest.raises(WorkerCrash):
                service.classify(frozen.features[:3], timeout=WAIT_S)


def test_healthy_service_answers_full_fidelity(frozen):
    with ProfileService(
        frozen, n_workers=2, cache_size=0,
        degrade=ServeDegradePolicy(failure_threshold=1),
    ) as service:
        result = service.classify(frozen.features[:5], timeout=WAIT_S)
    assert not result.degraded
    np.testing.assert_array_equal(result.labels,
                                  frozen.vote(frozen.features[:5]))
