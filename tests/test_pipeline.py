"""Integration tests: the full ICNProfiler pipeline on generated data.

These tests run the complete methodology on the scaled-down deployment
(the session-scoped ``small_profile`` fixture) and assert the paper's
headline findings survive end-to-end.
"""

import numpy as np
import pytest

from repro.core.pipeline import ICNProfiler
from repro.datagen.archetypes import GREEN_GROUP, ORANGE_GROUP, RED_GROUP
from repro.datagen.environments import EnvironmentType
from repro.ml.metrics import accuracy


class TestFit:
    def test_nine_clusters(self, small_profile):
        assert small_profile.n_clusters == 9

    def test_labels_recover_archetypes(self, small_dataset, small_profile):
        agreement = accuracy(small_profile.labels, small_dataset.archetypes())
        assert agreement > 0.97

    def test_surrogate_faithful(self, small_profile):
        assert small_profile.surrogate_accuracy > 0.98

    def test_features_are_rsca(self, small_profile):
        assert small_profile.features.min() >= -1.0
        assert small_profile.features.max() <= 1.0

    def test_cluster_sizes_sum_to_n(self, small_profile, small_dataset):
        assert sum(small_profile.cluster_sizes().values()) == small_dataset.n_antennas

    def test_fit_raw_matrix(self, small_dataset):
        profiler = ICNProfiler(n_clusters=4, surrogate_trees=10)
        profile = profiler.fit(small_dataset.totals[:120])
        assert profile.n_clusters == 4
        assert profile.env_types is None
        with pytest.raises(RuntimeError, match="TrafficDataset"):
            profile.environment_table()
        with pytest.raises(RuntimeError, match="TrafficDataset"):
            profile.paris_shares()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_clusters"):
            ICNProfiler(n_clusters=1)
        with pytest.raises(ValueError, match="surrogate_trees"):
            ICNProfiler(surrogate_trees=0)


class TestGroups:
    def test_three_dendrogram_groups_match_paper(self, small_profile):
        groups = small_profile.groups(3)
        by_group = {}
        for cluster, group in groups.items():
            by_group.setdefault(group, set()).add(cluster)
        partitions = sorted(sorted(v) for v in by_group.values())
        assert partitions == [
            sorted(int(a) for a in ORANGE_GROUP),
            sorted(int(a) for a in RED_GROUP),
            sorted(int(a) for a in GREEN_GROUP),
        ] or partitions == sorted([
            sorted(int(a) for a in ORANGE_GROUP),
            sorted(int(a) for a in GREEN_GROUP),
            sorted(int(a) for a in RED_GROUP),
        ])


class TestAlignment:
    def test_aligned_to_is_stable_when_already_aligned(
        self, small_profile, small_dataset
    ):
        again = ICNProfiler(n_clusters=9, surrogate_trees=30).fit(
            small_dataset, align_to=small_profile.labels)
        np.testing.assert_array_equal(again.labels, small_profile.labels)

    def test_alignment_improves_agreement(self, small_dataset):
        profiler = ICNProfiler(n_clusters=9, surrogate_trees=10)
        arch = small_dataset.archetypes()
        raw = profiler.fit(small_dataset)
        aligned = profiler.fit(small_dataset, align_to=arch)
        assert accuracy(aligned.labels, arch) >= accuracy(raw.labels, arch)

    def test_fit_align_to_fits_the_forest_once(self, small_dataset):
        from repro.obs import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            ICNProfiler(n_clusters=9, surrogate_trees=5).fit(
                small_dataset, align_to=small_dataset.archetypes())
        finally:
            set_registry(previous)
        stages = registry.get("repro_stage_seconds")
        assert stages.labels(stage="pipeline.surrogate").count == 1
        assert stages.labels(stage="pipeline.align").count == 0
        assert stages.labels(stage="pipeline.cluster").count == 1


class TestEnvironmentFindings:
    def test_orange_clusters_are_transit_only(self, small_profile):
        # Fig. 7a: metro and train stations monopolize the orange group.
        table = small_profile.environment_table()
        transit = {EnvironmentType.METRO, EnvironmentType.TRAIN}
        for cluster in (0, 4, 7):
            composition = table.composition_of(cluster)
            share = sum(composition[e] for e in transit)
            assert share > 0.95, cluster

    def test_cluster3_mostly_workspaces(self, small_profile):
        composition = small_profile.environment_table().composition_of(3)
        assert composition[EnvironmentType.WORKSPACE] > 0.6

    def test_airports_and_tunnels_flow_to_cluster1(self, small_profile):
        table = small_profile.environment_table()
        for env in (EnvironmentType.AIRPORT, EnvironmentType.TUNNEL):
            dist = table.distribution_of(env)
            assert dist[1] > 0.8, env

    def test_hospitals_flow_to_cluster2(self, small_profile):
        dist = small_profile.environment_table().distribution_of(
            EnvironmentType.HOSPITAL
        )
        assert dist[2] > 0.7

    def test_paris_shares_match_narrative(self, small_profile):
        shares = small_profile.paris_shares()
        # Clusters 0/4: Paris commuters; cluster 7: non-capital by design.
        assert shares[0] > 0.75
        assert shares[4] > 0.75
        assert shares[7] == 0.0
        # Cluster 2 is predominantly outside Paris.
        assert shares[2] < 0.35


class TestExplain:
    def test_explanations_cached(self, small_profile):
        first = small_profile.explain(samples_per_cluster=10)
        second = small_profile.explain(samples_per_cluster=10)
        assert first is second

    def test_summary_text(self, small_profile):
        text = small_profile.summary()
        assert "9 clusters" in text
        assert "surrogate" in text


class TestScan:
    def test_scan_has_peaks_at_6_and_9(self, small_dataset):
        profiler = ICNProfiler()
        result = profiler.scan_cluster_counts(small_dataset, ks=range(2, 13))
        silhouette_peaks = set(result.local_peaks("silhouette"))
        dunn_peaks = set(result.local_peaks("dunn"))
        # Fig. 2: both k = 6 and k = 9 show the high-then-drop signature
        # in at least one of the two indices.
        assert 6 in silhouette_peaks | dunn_peaks
        assert 9 in silhouette_peaks | dunn_peaks


class TestWardOncePerProfiler:
    """Scan-then-fit on one profiler and the same data runs Ward once."""

    @pytest.fixture()
    def ward_calls(self, monkeypatch):
        import repro.core.cluster as cluster

        calls = []
        real = cluster.linkage

        def counting(features, method="ward"):
            calls.append(method)
            return real(features, method)

        monkeypatch.setattr(cluster, "linkage", counting)
        return calls

    def test_scan_then_fit_runs_ward_once(self, small_dataset, ward_calls):
        profiler = ICNProfiler(n_clusters=9, surrogate_trees=5)
        profiler.scan_cluster_counts(small_dataset, ks=range(2, 12))
        profiler.fit(small_dataset, align_to=small_dataset.archetypes())
        assert ward_calls == ["ward"]

    def test_reused_fit_equals_fresh_fit(self, small_dataset):
        arch = small_dataset.archetypes()
        profiler = ICNProfiler(n_clusters=9, surrogate_trees=5)
        profiler.scan_cluster_counts(small_dataset, ks=[2, 9])
        reused = profiler.fit(small_dataset, align_to=arch)
        fresh = ICNProfiler(n_clusters=9, surrogate_trees=5).fit(
            small_dataset, align_to=arch)
        assert np.array_equal(reused.clustering.linkage_matrix_,
                              fresh.clustering.linkage_matrix_)
        assert np.array_equal(reused.labels, fresh.labels)
        a = reused.surrogate.compile().to_arrays()
        b = fresh.surrogate.compile().to_arrays()
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_new_profiler_runs_ward_again(self, small_dataset, ward_calls):
        ICNProfiler().scan_cluster_counts(small_dataset, ks=[2])
        ICNProfiler().scan_cluster_counts(small_dataset, ks=[2])
        assert len(ward_calls) == 2

    def test_changed_totals_run_ward_again(self, small_dataset, ward_calls):
        profiler = ICNProfiler(n_clusters=4, surrogate_trees=2)
        totals = small_dataset.totals[:120].copy()
        profiler.scan_cluster_counts(totals, ks=[2])
        totals[0] *= 3.0
        profile = profiler.fit(totals)
        assert len(ward_calls) == 2
        fresh = ICNProfiler(n_clusters=4, surrogate_trees=2).fit(totals)
        assert np.array_equal(profile.clustering.linkage_matrix_,
                              fresh.clustering.linkage_matrix_)

    def test_changed_linkage_runs_ward_again(self, small_dataset, ward_calls):
        profiler = ICNProfiler(n_clusters=4, surrogate_trees=2)
        totals = small_dataset.totals[:120]
        profiler.scan_cluster_counts(totals, ks=[2])
        profiler.linkage = "average"
        profile = profiler.fit(totals)
        assert ward_calls == ["ward", "average"]
        assert profile.clustering.linkage == "average"

    def test_edited_results_cannot_go_stale(self, small_dataset, ward_calls):
        # The memo keeps its own copies: in-place edits of a returned
        # profile's features or linkage never reach a later fit.
        profiler = ICNProfiler(n_clusters=4, surrogate_trees=2)
        totals = small_dataset.totals[:120]
        profile = profiler.fit(totals)
        profile.features[0] = 0.0
        profile.clustering.linkage_matrix_[:, 2] = 0.0
        again = profiler.fit(totals)
        fresh = ICNProfiler(n_clusters=4, surrogate_trees=2).fit(totals)
        assert np.array_equal(again.features, fresh.features)
        assert np.array_equal(again.clustering.linkage_matrix_,
                              fresh.clustering.linkage_matrix_)
        assert np.array_equal(again.labels, fresh.labels)
        assert len(ward_calls) == 2  # the first fit and the fresh profiler

    def test_same_data_fits_reuse_ward(self, small_dataset, ward_calls):
        profiler = ICNProfiler(n_clusters=4, surrogate_trees=2)
        totals = small_dataset.totals[:120]
        first = profiler.fit(totals)
        second = profiler.fit(totals.copy())
        assert len(ward_calls) == 1
        assert np.array_equal(first.labels, second.labels)
        assert second.clustering.linkage_matrix_ is not (
            first.clustering.linkage_matrix_)


class TestGeneralization:
    def test_surrogate_generalizes(self, small_profile):
        """The Fig. 9 premise: the forest classifies unseen antennas."""
        accuracy = small_profile.generalization_accuracy(test_fraction=0.25)
        assert accuracy > 0.9

    def test_split_fraction_forwarded(self, small_profile):
        a = small_profile.generalization_accuracy(test_fraction=0.5,
                                                  random_state=1)
        assert 0.0 <= a <= 1.0
