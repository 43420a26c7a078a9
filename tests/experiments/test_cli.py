"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.id == "all"

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--trace", "SDSC", "--scheduler", "cons", "--priority", "SJF"]
        )
        assert args.trace == "SDSC"
        assert args.scheduler == "cons"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "priorities:" in out

    def test_simulate_small(self, capsys):
        code = main(
            ["simulate", "--jobs", "150", "--scheduler", "easy", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean bounded slowdown" in out
        assert "EASY(FCFS)" in out

    def test_generate_writes_swf(self, tmp_path, capsys):
        out_path = tmp_path / "wl.swf"
        code = main(["generate", str(out_path), "--jobs", "50", "--trace", "SDSC"])
        assert code == 0
        text = out_path.read_text()
        assert "; MaxProcs: 128" in text
        assert len([l for l in text.splitlines() if not l.startswith(";")]) == 50

    def test_simulate_from_swf(self, tmp_path, capsys):
        out_path = tmp_path / "wl.swf"
        main(["generate", str(out_path), "--jobs", "50"])
        capsys.readouterr()
        code = main(["simulate", "--swf", str(out_path), "--scheduler", "nobf"])
        assert code == 0
        assert "NOBF" in capsys.readouterr().out

    def test_experiment_single(self, capsys):
        code = main(
            ["experiment", "tables23", "--jobs", "250", "--seeds", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "category distribution" in out

    def test_characterize_prints_statistics(self, capsys):
        code = main(["characterize", "--jobs", "600", "--trace", "SDSC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "offered load" in out
        assert "runtime histogram" in out
        assert "arrivals by hour of day" in out

    def test_characterize_from_swf(self, tmp_path, capsys):
        path = tmp_path / "wl.swf"
        main(["generate", str(path), "--jobs", "100"])
        capsys.readouterr()
        code = main(["characterize", "--swf", str(path)])
        assert code == 0
        assert "category SN (%)" in capsys.readouterr().out

    def test_report_writes_results_directory(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["report", str(out), "tables23", "--jobs", "800", "--seeds", "1"]
        )
        assert code == 0
        assert (out / "README.md").exists()
        assert (out / "tables23" / "report.md").exists()
        assert (out / "tables23" / "category_distribution.csv").exists()


class TestErrorPath:
    def test_unknown_experiment_returns_error(self, capsys):
        code = main(["experiment", "figure99", "--jobs", "100", "--seeds", "1"])
        assert code == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestExecutionFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "out", "--store-backend", "sqlite"],
            ["report", "out", "--chunk-size", "4"],
            ["report", "out", "--no-chains"],
            ["store", "stats", "dir", "--backend", "sqlite"],
            ["store", "gc", "dir", "--backend", "sqlite"],
            ["store", "migrate", "src", "dest", "--from", "json"],
            ["store", "migrate", "src", "dest", "--to", "sqlite"],
            ["store", "migrate", "a", "b"],
            ["sweep", "--dist"],
            ["sweep", "--workers", "2"],
            ["sweep", "--lease-seconds", "5"],
            ["sweep", "--max-attempts", "3"],
        ],
    )
    def test_retired_dispatch_knobs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # `store migrate` fails as an unknown subcommand, not an unknown flag.
        assert "unrecognized arguments" in err or "invalid choice: 'migrate'" in err

