"""Continuous profiler: sampling, window rotation, exports, overhead
budget, and self-metrics."""

import json
import threading
import time

import pytest

from repro.cli import build_parser
from repro.obs.prof import ContinuousProfiler
from repro.obs.registry import MetricsRegistry


class BusyThread:
    """A named thread spinning in a recognizable function."""

    def __init__(self, name="busy-worker"):
        self._stop = threading.Event()
        self.thread = threading.Thread(
            target=self._spin_hot_loop, name=name, daemon=True
        )

    def _spin_hot_loop(self):
        total = 0
        while not self._stop.is_set():
            total += sum(range(200))
        return total

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self.thread.join(timeout=2.0)


class TestConstruction:
    @pytest.mark.parametrize("kwargs,fragment", [
        ({"hz": 0}, "hz"),
        ({"hz": -5}, "hz"),
        ({"window_s": 0}, "window_s"),
        ({"n_windows": 0}, "n_windows"),
        ({"max_overhead": 0.0}, "max_overhead"),
        ({"max_overhead": 1.0}, "max_overhead"),
    ])
    def test_rejects_bad_parameters(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ContinuousProfiler(registry=MetricsRegistry(), **kwargs)


class TestSampling:
    def test_sample_once_captures_busy_named_thread(self):
        prof = ContinuousProfiler(registry=MetricsRegistry())
        with BusyThread(name="busy-worker"):
            time.sleep(0.05)
            for _ in range(5):
                assert prof.sample_once(now=0.0) >= 1
        collapsed = prof.collapsed()
        busy = [s for s in collapsed if s.startswith("thread:busy-worker")]
        assert busy, f"busy thread missing from {list(collapsed)[:5]}"
        assert any("_spin_hot_loop" in s for s in busy)

    def test_stack_is_root_first(self):
        prof = ContinuousProfiler(registry=MetricsRegistry())
        with BusyThread(name="busy-worker"):
            time.sleep(0.05)
            prof.sample_once(now=0.0)
        stacks = [
            s for s in prof.collapsed()
            if s.startswith("thread:busy-worker")
        ]
        frames = stacks[0].split(";")
        assert frames[0] == "thread:busy-worker"
        # run() sits above the target function in a Thread's stack.
        names = [f.split(" ")[0] for f in frames]
        assert names.index("_spin_hot_loop") > names.index("run")

    def test_window_rotation_bounds_history(self):
        prof = ContinuousProfiler(window_s=10.0, n_windows=3,
                                  registry=MetricsRegistry())
        with BusyThread():
            time.sleep(0.05)
            # 6 windows' worth of synthetic time; only 3 retained.
            for i in range(6):
                prof.sample_once(now=float(i) * 10.0)
        stats = prof.stats()
        assert stats["n_windows"] == 3
        assert stats["snapshot_passes"] == 3

    def test_merged_window_selects_trailing_span(self):
        prof = ContinuousProfiler(window_s=10.0, n_windows=6,
                                  registry=MetricsRegistry())
        with BusyThread():
            time.sleep(0.05)
            for i in range(4):
                prof.sample_once(now=float(i) * 10.0)
        all_passes = prof.stats()["snapshot_passes"]
        _, recent_passes = prof._merged(seconds=10.0, now=30.0)
        assert all_passes == 4
        assert recent_passes < all_passes


class TestExports:
    @pytest.fixture()
    def sampled(self):
        prof = ContinuousProfiler(hz=50.0, registry=MetricsRegistry())
        with BusyThread(name="busy-worker"):
            time.sleep(0.05)
            for _ in range(10):
                prof.sample_once(now=0.0)
        return prof

    def test_collapsed_text_format(self, sampled):
        text = sampled.collapsed_text()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_speedscope_document_structure(self, sampled):
        doc = sampled.speedscope()
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"])
        n_frames = len(doc["shared"]["frames"])
        for sample in profile["samples"]:
            assert all(0 <= index < n_frames for index in sample)
        # Weight of a stack sampled k times at hz is k/hz seconds.
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        assert all(w >= 1 / 50.0 for w in profile["weights"])

    def test_export_files(self, sampled, tmp_path):
        speedscope_path = tmp_path / "prof.speedscope.json"
        collapsed_path = tmp_path / "prof.collapsed.txt"
        n_samples = sampled.export_speedscope(speedscope_path)
        n_lines = sampled.export_collapsed(collapsed_path)
        assert n_samples > 0
        assert n_lines > 0
        doc = json.loads(speedscope_path.read_text())
        assert len(doc["profiles"][0]["samples"]) == n_samples
        assert "busy-worker" in json.dumps(doc)

    def test_empty_profiler_exports_cleanly(self, tmp_path):
        prof = ContinuousProfiler(registry=MetricsRegistry())
        assert prof.collapsed() == {}
        assert prof.collapsed_text() == ""
        assert prof.export_collapsed(tmp_path / "empty.txt") == 0
        assert prof.export_speedscope(tmp_path / "empty.json") == 0


class TestLifecycleAndBudget:
    def test_start_stop_and_context_manager(self):
        prof = ContinuousProfiler(hz=200.0, registry=MetricsRegistry())
        assert not prof.running
        with prof:
            assert prof.running
            deadline = time.monotonic() + 2.0
            while (prof.stats()["snapshot_passes"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        assert not prof.running
        assert prof.stats()["snapshot_passes"] > 0

    def test_start_is_idempotent(self):
        prof = ContinuousProfiler(registry=MetricsRegistry()).start()
        try:
            thread = prof._thread
            assert prof.start()._thread is thread
        finally:
            prof.stop()

    def test_tiny_budget_forces_throttling(self):
        registry = MetricsRegistry()
        prof = ContinuousProfiler(hz=500.0, max_overhead=0.0001,
                                  registry=registry)
        with BusyThread():
            with prof:
                deadline = time.monotonic() + 2.0
                while (prof.stats()["snapshot_passes"] < 2
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
        text = registry.prometheus_text()
        throttled = [
            line for line in text.splitlines()
            if line.startswith("repro_prof_throttled_ticks_total ")
        ]
        assert throttled and float(throttled[0].split()[-1]) > 0

    def test_self_metrics_registered(self):
        registry = MetricsRegistry()
        prof = ContinuousProfiler(registry=registry)
        with BusyThread():
            time.sleep(0.05)
            prof.sample_once(now=0.0)
        text = registry.prometheus_text()
        for name in ("repro_prof_samples_total", "repro_prof_stacks_total",
                     "repro_prof_overhead_ratio",
                     "repro_prof_sample_seconds"):
            assert name in text

    def test_sampling_cost_stays_within_budget(self):
        """Summed snapshot cost <= ``max_overhead`` x elapsed + one tick.

        Each tick waits at least ``cost / max_overhead`` after sampling,
        so every finished tick spends at most ``max_overhead`` of its
        wall time sampling; only the last tick, cut short by ``stop``,
        can exceed it.  Cost and elapsed time come from one clock, so
        the bound holds on any host.
        """
        hz = build_parser().parse_args(["serve"]).profile_hz
        registry = MetricsRegistry()
        prof = ContinuousProfiler(hz=hz, registry=registry)
        with BusyThread():
            started = time.monotonic()
            with prof:
                time.sleep(1.0)
            elapsed = time.monotonic() - started
        assert prof.stats()["snapshot_passes"] > 0
        ticks = registry.get("repro_prof_sample_seconds")
        # The bucket holding the slowest tick bounds that tick's cost.
        worst_tick = next(bound for bound, cumulative
                          in ticks.cumulative_buckets()
                          if cumulative == ticks.count)
        assert ticks.sum <= prof.max_overhead * elapsed + worst_tick
