"""Tests for the cluster-aware caching planner."""

import numpy as np
import pytest

from repro.apps.caching import (
    CachePlan,
    cacheable_fractions,
    cluster_aware_gain,
    global_cache_hit,
    plan_all_caches,
    plan_cluster_cache,
)
from repro.datagen.services import default_catalog


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


class TestCacheableFractions:
    def test_shape_and_bounds(self, catalog):
        fractions = cacheable_fractions(catalog)
        assert fractions.shape == (73,)
        assert np.all((0 <= fractions) & (fractions <= 1))

    def test_streaming_more_cacheable_than_messaging(self, catalog):
        fractions = cacheable_fractions(catalog)
        netflix = fractions[catalog.index_of("Netflix")]
        whatsapp = fractions[catalog.index_of("WhatsApp")]
        assert netflix > 4 * whatsapp


class TestPlanClusterCache:
    def test_budget_respected(self, small_dataset, small_profile, catalog):
        plan = plan_cluster_cache(
            small_dataset.totals, small_profile.labels, 0, catalog, budget=5
        )
        assert len(plan.cached_services) == 5
        assert 0 < plan.hit_fraction < 1

    def test_office_cluster_does_not_cache_netflix_first(
        self, small_dataset, small_profile, catalog
    ):
        office = plan_cluster_cache(
            small_dataset.totals, small_profile.labels, 3, catalog, budget=5
        )
        general = plan_cluster_cache(
            small_dataset.totals, small_profile.labels, 1, catalog, budget=5
        )
        # The general cluster caches streaming; the office cluster's top
        # picks diverge (its streaming demand is suppressed).
        assert set(office.cached_services) != set(general.cached_services)

    def test_commuter_cluster_caches_music(
        self, small_dataset, small_profile, catalog
    ):
        plan = plan_cluster_cache(
            small_dataset.totals, small_profile.labels, 0, catalog, budget=8
        )
        music = {"Spotify", "Deezer", "Apple Music", "YouTube Music",
                 "SoundCloud"}
        assert set(plan.cached_services) & music

    def test_hit_fraction_grows_with_budget(
        self, small_dataset, small_profile, catalog
    ):
        small = plan_cluster_cache(
            small_dataset.totals, small_profile.labels, 1, catalog, budget=3
        )
        large = plan_cluster_cache(
            small_dataset.totals, small_profile.labels, 1, catalog, budget=20
        )
        assert large.hit_fraction > small.hit_fraction

    def test_validation(self, small_dataset, small_profile, catalog):
        with pytest.raises(ValueError, match="budget"):
            plan_cluster_cache(small_dataset.totals, small_profile.labels,
                               0, catalog, budget=0)
        with pytest.raises(ValueError, match="no member"):
            plan_cluster_cache(small_dataset.totals, small_profile.labels,
                               42, catalog)
        with pytest.raises(ValueError, match="labels length"):
            plan_cluster_cache(small_dataset.totals,
                               small_profile.labels[:-1], 0, catalog)


class TestPolicies:
    def test_plan_all_covers_clusters(self, small_dataset, small_profile,
                                      catalog):
        plans = plan_all_caches(small_dataset.totals, small_profile.labels,
                                catalog, budget=5)
        assert sorted(plans) == sorted(small_profile.cluster_sizes())

    def test_global_hit_bounds(self, small_dataset, catalog):
        hit = global_cache_hit(small_dataset.totals, catalog, budget=10)
        assert 0 < hit < 1

    def test_cluster_aware_beats_global(self, small_dataset, small_profile,
                                        catalog):
        aware, global_hit = cluster_aware_gain(
            small_dataset.totals, small_profile.labels, catalog, budget=10
        )
        # The paper's environment-aware orchestration argument: matching
        # the cache to each environment's demand can only help.
        assert aware >= global_hit - 1e-9
        assert aware > 0

    def test_gain_vanishes_with_full_budget(self, small_dataset,
                                            small_profile, catalog):
        aware, global_hit = cluster_aware_gain(
            small_dataset.totals, small_profile.labels, catalog, budget=73
        )
        assert aware == pytest.approx(global_hit)

    def test_global_hit_is_traffic_weighted_cluster_hit(
        self, small_dataset, small_profile, catalog
    ):
        # The nationwide selection's hit in each cluster, weighted by the
        # cluster's traffic, is the nationwide hit itself.
        matrix = small_dataset.totals
        labels = np.asarray(small_profile.labels)
        cacheable = cacheable_fractions(catalog)
        order = np.argsort(matrix.sum(axis=0) * cacheable)[::-1][:10]
        selected = np.zeros(len(catalog), dtype=bool)
        selected[order] = True
        cluster_traffic = {
            c: float(matrix[labels == c].sum()) for c in np.unique(labels)
        }
        total = sum(cluster_traffic.values())
        weighted = 0.0
        for c in cluster_traffic:
            traffic = matrix[labels == c].sum(axis=0)
            hit = float((traffic * cacheable)[selected].sum() / traffic.sum())
            weighted += hit * cluster_traffic[c] / total
        assert abs(weighted - global_cache_hit(matrix, catalog, 10)) < 1e-12
        _, global_hit = cluster_aware_gain(matrix, labels, catalog, budget=10)
        assert global_hit == global_cache_hit(matrix, catalog, 10)


class TestCachePlanValidation:
    def test_hit_fraction_bounds(self):
        with pytest.raises(ValueError, match="hit_fraction"):
            CachePlan(0, ("Netflix",), 1.5)
