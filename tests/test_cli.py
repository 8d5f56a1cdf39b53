"""Tests for the repro-icn command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datagen.dataset import TrafficDataset
from tests.conftest import scaled_specs


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    """A small dataset written to disk for the CLI to consume."""
    from repro.datagen.dataset import generate_dataset

    path = tmp_path_factory.mktemp("cli") / "small.npz"
    generate_dataset(master_seed=2, specs=scaled_specs(0.08)).save(path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "out.npz", "--seed", "3"])
        assert args.output == "out.npz"
        assert args.seed == 3

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_generate_writes_file(self, tmp_path, capsys, monkeypatch):
        # Patch the generator to the small layout for speed.
        import repro.cli as cli
        from repro.datagen.dataset import generate_dataset as real_generate

        monkeypatch.setattr(
            cli, "generate_dataset",
            lambda master_seed: real_generate(master_seed,
                                              specs=scaled_specs(0.05)),
        )
        out = tmp_path / "data.npz"
        assert main(["generate", str(out), "--seed", "1"]) == 0
        assert out.exists()
        loaded = TrafficDataset.load(out)
        assert loaded.n_services == 73
        assert "wrote" in capsys.readouterr().out

    def test_profile_from_file(self, dataset_file, capsys):
        assert main(["profile", "--dataset", dataset_file, "--align"]) == 0
        out = capsys.readouterr().out
        assert "ICN profile" in out
        assert "9 clusters" in out

    def test_scan_from_file(self, dataset_file, capsys):
        assert main(["scan", "--dataset", dataset_file, "--max-k", "6"]) == 0
        out = capsys.readouterr().out
        assert "silhouette" in out

    def test_figure_fig1(self, dataset_file, capsys):
        assert main(["figure", "fig1", "--dataset", dataset_file]) == 0
        out = capsys.readouterr().out
        assert "max RCA" in out

    def test_figure_fig3(self, dataset_file, capsys):
        assert main(["figure", "fig3", "--dataset", dataset_file,
                     "--align"]) == 0
        out = capsys.readouterr().out
        assert "group" in out

    def test_figure_fig6(self, dataset_file, capsys):
        assert main(["figure", "fig6", "--dataset", dataset_file,
                     "--align"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out

    def test_figure_fig9(self, dataset_file, capsys):
        assert main(["figure", "fig9", "--dataset", dataset_file, "--align",
                     "--outdoor", "200"]) == 0
        out = capsys.readouterr().out
        assert "%" in out


class TestNewCommands:
    def test_validate(self, dataset_file, capsys):
        # The scaled dataset fails the Table 1 count check (expected) but
        # the command runs and reports.
        code = main(["validate", "--dataset", dataset_file])
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert code in (0, 1)

    def test_operations(self, dataset_file, capsys):
        assert main(["operations", "--dataset", dataset_file,
                     "--align"]) == 0
        out = capsys.readouterr().out
        assert "slice" in out
        assert "energy saving" in out
        assert "caching" in out

    def test_figure_fig7_fig8(self, dataset_file, capsys):
        assert main(["figure", "fig7", "--dataset", dataset_file,
                     "--align"]) == 0
        out7 = capsys.readouterr().out
        assert "cluster 0:" in out7
        assert main(["figure", "fig8", "--dataset", dataset_file,
                     "--align"]) == 0
        out8 = capsys.readouterr().out
        assert "metro:" in out8

    def test_figure_fig11(self, dataset_file, capsys):
        assert main(["figure", "fig11", "--dataset", dataset_file,
                     "--align"]) == 0
        out = capsys.readouterr().out
        assert "Spotify" in out
        assert "Microsoft Teams" in out

    def test_report_to_file(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--dataset", dataset_file, "--align",
                     "--output", str(out), "--shap-samples", "5"]) == 0
        text = out.read_text()
        assert text.startswith("# Indoor cellular demand profile")
        assert "Cluster inventory" in text

    def test_serve_answers_requests_then_exits(self, tmp_path, capsys):
        import json
        import socket
        import threading
        import time
        import urllib.request

        from tests.conftest import build_frozen_profile

        frozen, _ = build_frozen_profile()
        artifact = tmp_path / "frozen.npz"
        frozen.save(artifact)

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        answers = []

        def poke():
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=2.0
                    ) as response:
                        answers.append(json.loads(response.read()))
                        return
                except OSError:
                    time.sleep(0.05)

        client = threading.Thread(target=poke)
        client.start()
        code = main(["serve", "--frozen", str(artifact),
                     "--port", str(port), "--max-requests", "1"])
        client.join(25.0)
        assert code == 0
        assert answers and answers[0]["status"] == "ok"
        out = capsys.readouterr().out
        assert "serving profile version 1" in out
        assert "requests served" in out

    def test_obs_trace_export(self, dataset_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["obs", "trace-export", "--dataset", dataset_file,
                     "--align", "--shap-samples", "3",
                     "--output", str(trace_path),
                     "--metrics-output", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "spans over" in out

        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"pipeline.rca", "pipeline.cluster", "pipeline.surrogate",
                "pipeline.shap"} <= names
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"

        metrics = json.loads(metrics_path.read_text())
        stages = {series["labels"]["stage"]
                  for series in metrics["repro_stage_seconds"]["series"]}
        assert "pipeline.rca" in stages

    def test_obs_dump_prometheus(self, dataset_file, capsys):
        assert main(["obs", "dump", "--dataset", dataset_file,
                     "--shap-samples", "0"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_stage_seconds histogram" in out
        assert 'repro_stage_seconds_bucket{stage="pipeline.rca"' in out

    def test_obs_dump_json_to_file(self, dataset_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        assert main(["obs", "dump", "--dataset", dataset_file,
                     "--shap-samples", "0", "--format", "json",
                     "--output", str(out_path)]) == 0
        snapshot = json.loads(out_path.read_text())
        assert snapshot["repro_stage_seconds"]["type"] == "histogram"

    def test_stream(self, dataset_file, tmp_path, capsys):
        checkpoint = tmp_path / "stream.npz"
        assert main(["stream", "--dataset", dataset_file, "--align",
                     "--days", "2", "--limit", "40", "--report-every", "24",
                     "--window-hours", "24",
                     "--checkpoint", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "frozen profile: 9 clusters" in out
        assert "replaying 48 hourly batches of 40 antennas" in out
        assert "occupancy" in out
        assert "drift @" in out
        assert "antenna-hours ingested: 1920" in out
        assert checkpoint.exists()
