"""Tests for the frozen-profile artifact and the streaming profiler."""

import io
import json

import numpy as np
import pytest

from repro.core.pipeline import ICNProfiler
from repro.datagen.calendar import StudyCalendar
from repro.datagen.dataset import generate_dataset
from repro.ml.compiled import FusedProfileKernel
from repro.ml.forest import RandomForestClassifier
from repro.obs import set_log_level, set_log_stream
from repro.stream import (
    FrozenProfile,
    StreamingProfiler,
    freeze_profile,
    replay_dataset,
)
from tests.conftest import scaled_specs


@pytest.fixture(scope="module")
def stream_dataset():
    """Tiny deployment over a 4-day calendar — fast to replay in full."""
    calendar = StudyCalendar(
        np.datetime64("2023-01-09T00", "h"),
        np.datetime64("2023-01-12T23", "h"),
    )
    return generate_dataset(master_seed=3, specs=scaled_specs(0.05),
                            calendar=calendar)


@pytest.fixture(scope="module")
def stream_profile(stream_dataset):
    profiler = ICNProfiler(n_clusters=9, surrogate_trees=15)
    return profiler.fit(stream_dataset,
                        align_to=stream_dataset.archetypes())


@pytest.fixture(scope="module")
def frozen(stream_profile):
    return stream_profile.freeze()


@pytest.fixture(scope="module")
def batches(stream_dataset):
    return list(replay_dataset(stream_dataset))


class TestFrozenProfile:
    def test_freeze_captures_partition(self, stream_profile, frozen):
        assert frozen.n_clusters == stream_profile.n_clusters
        assert frozen.service_names == tuple(stream_profile.service_names)
        np.testing.assert_array_equal(
            frozen.antenna_ids, np.arange(stream_profile.features.shape[0])
        )
        for k, cluster in enumerate(frozen.clusters):
            members = stream_profile.features[
                stream_profile.labels == cluster
            ]
            np.testing.assert_allclose(frozen.centroids[k],
                                       members.mean(axis=0))

    def test_centroids_classify_to_own_cluster(self, frozen):
        np.testing.assert_array_equal(
            frozen.nearest_centroids(frozen.centroids), frozen.clusters
        )

    def test_vote_recovers_training_labels(self, frozen):
        labels = frozen.vote(frozen.features)
        agreement = np.mean(labels == frozen.labels)
        assert agreement > 0.9

    def test_save_load_reproduces_votes(self, frozen, tmp_path):
        path = tmp_path / "frozen.npz"
        frozen.save(path)
        loaded = FrozenProfile.load(path)
        assert loaded.service_names == frozen.service_names
        np.testing.assert_array_equal(loaded.labels, frozen.labels)
        np.testing.assert_array_equal(loaded.centroids, frozen.centroids)
        # the refit surrogate is deterministic -> identical predictions
        np.testing.assert_array_equal(
            loaded.surrogate.predict_proba(frozen.features),
            frozen.surrogate.predict_proba(frozen.features),
        )
        np.testing.assert_array_equal(
            loaded.vote(frozen.features), frozen.vote(frozen.features)
        )

    def test_freeze_rejects_bad_antenna_ids(self, stream_profile):
        with pytest.raises(ValueError, match="antenna_ids"):
            freeze_profile(stream_profile, antenna_ids=[1, 2, 3])


class TestStreamingProfiler:
    def test_full_replay_agrees_with_frozen_labels(self, frozen, batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        for batch in batches:
            streamer.ingest(batch)
        ids, labels = streamer.classify_current()
        reference = frozen.labels[np.searchsorted(frozen.antenna_ids, ids)]
        assert np.mean(labels == reference) > 0.9

    def test_occupancy_counts_all_classified_antennas(self, frozen, batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=12)
        results = [streamer.ingest(batch) for batch in batches]
        classified = [r for r in results if r.occupancy is not None]
        assert len(classified) == len(batches) // 12
        for result in classified:
            assert sum(result.occupancy.values()) == streamer.totals.n_antennas
        assert set(classified[-1].occupancy) == {
            int(c) for c in frozen.clusters
        }

    def test_metrics_track_ingestion(self, frozen, batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=24)
        for batch in batches:
            streamer.ingest(batch)
        metrics = streamer.metrics
        assert metrics.count("batches_ingested") == len(batches)
        assert metrics.count("rows_ingested") == sum(
            b.n_rows for b in batches
        )
        assert metrics.count("antennas_discovered") == batches[0].n_rows
        assert metrics.count("classify_calls") == len(batches) // 24
        assert metrics.rows_per_second() > 0
        assert metrics.classification_latency() > 0
        assert "antenna-hours" in metrics.summary()

    def test_metrics_summary_before_any_classification(self, frozen,
                                                       batches):
        # "0.0 ms/batch" would read as a measurement; show n/a instead.
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        streamer.ingest(batches[0])
        text = streamer.metrics.summary()
        assert "(n/a)" in text
        assert "ms/batch" not in text

    def test_metrics_to_dict_is_json_ready(self, frozen, batches):
        import json

        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=24)
        for batch in batches[:24]:
            streamer.ingest(batch)
        snapshot = streamer.metrics.to_dict()
        json.dumps(snapshot)  # must serialize without help
        assert snapshot["counters"]["batches_ingested"] == 24
        assert snapshot["derived"]["rows_per_second"] > 0
        assert snapshot["derived"]["classification_latency_ms"] > 0
        assert isinstance(snapshot["snapshot_ts"], float)
        assert streamer.metrics.to_dict()["snapshot_ts"] >= \
            snapshot["snapshot_ts"]

    def test_metrics_to_dict_keeps_timer_and_counter_keys(self, frozen,
                                                          batches):
        # The stream-day ledger reads these keys; a renamed span reads 0.
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=3, drift_check_every=12)
        for batch in batches[:24]:
            streamer.ingest(batch)
        snapshot = streamer.metrics.to_dict()
        for timer in ("ingest_seconds", "classify_seconds", "drift_seconds"):
            assert snapshot["timers"][timer] > 0, timer
        counters = snapshot["counters"]
        assert counters["batches_ingested"] == 24
        assert counters["classify_calls"] == 8
        assert counters["drift_checks"] == 2

    def test_metrics_to_dict_latency_none_before_first_pass(self, frozen,
                                                            batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        streamer.ingest(batches[0])
        snapshot = streamer.metrics.to_dict()
        assert snapshot["derived"]["classification_latency_ms"] is None

    def test_drift_low_on_faithful_replay(self, frozen, batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        for batch in batches:
            streamer.ingest(batch)
        signal = streamer.check_drift()
        assert signal.n_common_antennas == streamer.totals.n_antennas
        assert signal.mean_centroid_drift < 0.5
        assert not signal.refit_recommended
        assert "profile holds" in signal.summary()

    def test_drift_flags_perturbed_stream(self, frozen, batches):
        faithful = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        shifted = StreamingProfiler(frozen, window_hours=24,
                                    classify_every=0)
        # collapse the service mix: all traffic lands on one service, so
        # every antenna's RSCA walks far from its frozen profile
        for batch in batches:
            faithful.ingest(batch)
            collapsed = np.zeros_like(batch.traffic)
            collapsed[:, 0] = batch.traffic.sum(axis=1)
            shifted.ingest(
                type(batch)(
                    hour=batch.hour,
                    antenna_ids=batch.antenna_ids,
                    traffic=collapsed,
                    service_names=batch.service_names,
                )
            )
        low = faithful.check_drift()
        high = shifted.check_drift()
        assert high.mean_centroid_drift > low.mean_centroid_drift
        assert high.refit_recommended

    def test_drift_logs_only_a_recommended_refit(self, frozen, batches):
        quiet = StreamingProfiler(frozen, window_hours=24, classify_every=0)
        loud = StreamingProfiler(frozen, window_hours=24, classify_every=0,
                                 drift_threshold=1e-9)
        for batch in batches:
            quiet.ingest(batch)
            loud.ingest(batch)
        sink = io.StringIO()
        previous_stream = set_log_stream(sink)
        previous_level = set_log_level("info")
        try:
            assert not quiet.check_drift().refit_recommended
            assert sink.getvalue() == ""
            assert loud.check_drift().refit_recommended
        finally:
            set_log_stream(previous_stream)
            set_log_level(previous_level)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [(r["level"], r["event"]) for r in records] == [
            ("warning", "drift_check")
        ]
        assert records[0]["refit_recommended"] is True
        assert quiet.metrics.count("drift_checks") == 1

    def test_scheduled_drift_checks(self, frozen, batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0,
                                     drift_check_every=48)
        signals = [
            r.drift for r in (streamer.ingest(b) for b in batches)
            if r.drift is not None
        ]
        assert len(signals) == len(batches) // 48
        assert streamer.metrics.count("drift_checks") == len(signals)

    def test_classify_and_drift_hour_votes_once(self, frozen, batches,
                                                monkeypatch):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=6, drift_check_every=12)
        for batch in batches[:11]:
            streamer.ingest(batch)
        calls = []
        vote = FusedProfileKernel.vote

        def counting_vote(self, features):
            calls.append(features.shape[0])
            return vote(self, features)

        monkeypatch.setattr(FusedProfileKernel, "vote", counting_vote)
        result = streamer.ingest(batches[11])
        assert result.occupancy is not None and result.drift is not None
        assert len(calls) == 1
        # The shared vote leaves the signal as a fresh check would give it.
        assert result.drift == streamer.check_drift()
        assert len(calls) == 2

    def test_checkpoint_restore_matches_uninterrupted(self, frozen, batches,
                                                      tmp_path):
        uninterrupted = StreamingProfiler(frozen, window_hours=24,
                                          classify_every=0)
        for batch in batches:
            uninterrupted.ingest(batch)

        interrupted = StreamingProfiler(frozen, window_hours=24,
                                        classify_every=0)
        half = len(batches) // 2
        for batch in batches[:half]:
            interrupted.ingest(batch)
        path = tmp_path / "checkpoint.npz"
        interrupted.checkpoint(path)
        assert interrupted.metrics.count("checkpoints_written") == 1

        resumed = StreamingProfiler.restore(path, frozen, classify_every=0)
        assert resumed.metrics.count("batches_ingested") == half
        for batch in batches[half:]:
            resumed.ingest(batch)

        assert np.array_equal(uninterrupted.totals.totals(),
                              resumed.totals.totals())
        assert uninterrupted.totals.grand_total == resumed.totals.grand_total
        assert np.array_equal(uninterrupted.window.tensor(),
                              resumed.window.tensor())
        assert uninterrupted.occupancy() == resumed.occupancy()
        assert resumed.metrics.count("batches_ingested") == len(batches)

    def test_restore_rejects_service_mismatch(self, frozen, batches,
                                              tmp_path):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        streamer.ingest(batches[0])
        path = tmp_path / "checkpoint.npz"
        streamer.checkpoint(path)
        other = FrozenProfile(
            features=frozen.features,
            labels=frozen.labels,
            antenna_ids=frozen.antenna_ids,
            clusters=frozen.clusters,
            centroids=frozen.centroids,
            service_names=tuple(f"renamed_{s}"
                                for s in frozen.service_names),
            surrogate=frozen.surrogate,
        )
        with pytest.raises(ValueError, match="service columns"):
            StreamingProfiler.restore(path, other)

    def test_summary_reports_state(self, frozen, batches):
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=0)
        for batch in batches[:24]:
            streamer.ingest(batch)
        text = streamer.summary()
        assert "24 hours ingested" in text
        assert "occupancy" in text

    def test_rejects_bad_parameters(self, frozen):
        with pytest.raises(ValueError, match="classify_every"):
            StreamingProfiler(frozen, classify_every=-1)
        with pytest.raises(ValueError, match="drift_threshold"):
            StreamingProfiler(frozen, drift_threshold=0.0)


def _refuse(*_args, **_kwargs):
    raise AssertionError("this path must not be called here")


class TestInferencePaths:
    """Stream inference runs on the kernel; ``vote`` stays its oracle."""

    def test_replay_votes_through_kernel(self, frozen, batches, monkeypatch):
        # With the object forest unable to vote, a replay that classifies
        # and checks drift on schedule must still run end to end.
        monkeypatch.setattr(RandomForestClassifier, "predict_proba", _refuse)
        streamer = StreamingProfiler(frozen, window_hours=24,
                                     classify_every=6, drift_check_every=24)
        results = [streamer.ingest(batch) for batch in batches]
        assert sum(r.occupancy is not None for r in results) == len(batches) // 6
        assert sum(r.drift is not None for r in results) == len(batches) // 24
        _, labels = streamer.classify_current()
        _, features = streamer.totals.rsca_nonzero()
        monkeypatch.undo()
        assert np.array_equal(labels, frozen.vote(features))

    def test_vote_is_independent_of_kernel(self, frozen, monkeypatch):
        expected = frozen.kernel().vote(frozen.features)
        monkeypatch.setattr(FrozenProfile, "kernel", _refuse)
        monkeypatch.setattr(FrozenProfile, "compiled_forest", _refuse)
        monkeypatch.setattr(RandomForestClassifier, "compile", _refuse)
        assert np.array_equal(frozen.vote(frozen.features), expected)
