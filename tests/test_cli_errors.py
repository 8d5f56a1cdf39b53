"""CLI error-path coverage: unknown subcommands, bad arguments, missing
paths — every failure must exit with a clear message, never a traceback."""

import pytest

from repro.cli import build_parser, main


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
