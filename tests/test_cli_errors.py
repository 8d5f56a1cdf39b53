"""CLI error-path coverage: unknown subcommands, bad arguments, missing
paths — every failure must exit with a clear message, never a traceback."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datagen.dataset import generate_dataset
from repro.datagen.scenarios import scaled_specs
from repro.stream import FrozenProfile
from repro.stream.checkpoint import save_state

from tests.conftest import build_frozen_profile


class TestUnknownSubcommand:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestStreamArguments:
    def test_missing_checkpoint_directory_fails_fast(self, tmp_path, capsys):
        # Validation happens before the (expensive) dataset fit.
        missing = tmp_path / "no" / "such" / "dir" / "state.npz"
        code = main(["stream", "--checkpoint", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint directory" in err
        assert "does not exist" in err


class TestServeArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--max-batch", "0"],
            ["serve", "--workers", "0"],
            ["serve", "--queue-depth", "0"],
            ["serve", "--port", "99999"],
            ["serve", "--port", "-1"],
        ],
    )
    def test_invalid_serve_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_frozen_artifact(self, tmp_path, capsys):
        code = main(["serve", "--frozen", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_valid_serve_arguments_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch", "32",
             "--workers", "4", "--queue-depth", "16",
             "--cache-ttl", "30"]
        )
        assert args.port == 0
        assert args.max_batch == 32
        assert args.workers == 4
        assert args.cache_ttl == pytest.approx(30.0)


class TestArchiveErrors:
    """A missing or corrupt archive exits 2 with one ``error:`` line."""

    @staticmethod
    def error_line(capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        return lines[0]

    def test_truncated_frozen_artifact(self, tmp_path, capsys):
        path = tmp_path / "frozen.npz"
        build_frozen_profile()[0].save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert main(["serve", "--frozen", str(path)]) == 2
        assert self.error_line(capsys).startswith(
            f"error: corrupt checkpoint {path}: ")

    def test_pre_change_dataset_archive(self, tmp_path, capsys):
        # The layout datasets had before they went through the checkpoint
        # writer: raw np.savez arrays with no manifest.
        path = tmp_path / "dataset.npz"
        np.savez_compressed(path, totals=np.ones((2, 3)),
                            meta=np.frombuffer(b"{}", dtype=np.uint8))
        assert main(["validate", "--dataset", str(path)]) == 2
        assert self.error_line(capsys) == (
            f"error: corrupt checkpoint {path}: missing manifest")

    def test_missing_dataset(self, tmp_path, capsys):
        path = tmp_path / "nope.npz"
        assert main(["profile", "--dataset", str(path)]) == 2
        assert self.error_line(capsys) == (
            f"error: dataset {path} does not exist")

    @pytest.mark.parametrize("argv,key,kind", [
        (["serve", "--frozen"], "features", "frozen profile"),
        (["validate", "--dataset"], "totals", "dataset"),
    ])
    def test_archive_of_another_kind(self, tmp_path, capsys, argv, key,
                                     kind):
        # A valid checkpoint that is not a frozen profile or a dataset.
        path = tmp_path / "other.npz"
        save_state(path, {"x": 1})
        assert main(argv + [str(path)]) == 2
        assert self.error_line(capsys) == (
            f"error: corrupt checkpoint {path}: "
            f"missing key {key!r}: not a {kind} archive")

    def test_suffixless_name_round_trips(self, tmp_path, capsys):
        # save() appends .npz to a bare name; load() and the CLI's
        # existence check find the same file under that name.
        frozen, _ = build_frozen_profile()
        frozen.save(tmp_path / "art")
        loaded = FrozenProfile.load(tmp_path / "art")
        np.testing.assert_array_equal(loaded.labels, frozen.labels)
        generate_dataset(2, scaled_specs(0.02)).save(tmp_path / "data")
        assert main(["validate", "--dataset", str(tmp_path / "data")]) != 2
        assert "error" not in capsys.readouterr().err
