"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.harness import figure_names


class TestParser:
    def test_every_command_registered(self):
        parser = build_parser()
        for name in figure_names():
            args = parser.parse_args([name])
            assert args.command == name

    def test_default_ops(self):
        args = build_parser().parse_args(["fig1"])
        assert args.ops == 60_000

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_engine_flag_is_gone(self, capsys):
        # Figures always run the batched engine; the scalar reference is
        # constructed directly by tests, never selected from the CLI.
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--engine", "scalar"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "energy" in out

    def test_fig1_prints_table(self, capsys):
        assert main(["fig1", "--ops", "10000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "gapbs_pr" in out

    def test_out_directory_written(self, tmp_path, capsys):
        assert main(["fig2", "--ops", "10000", "--out", str(tmp_path)]) == 0
        written = tmp_path / "fig2.txt"
        assert written.exists()
        assert "Figure 2" in written.read_text()

    def test_energy_runs(self, capsys):
        assert main(["energy", "--ops", "10000"]) == 0
        assert "CACTI" in capsys.readouterr().out


class TestCsvExport:
    def test_csv_written_for_tabular_figure(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fig1", "--ops", "8000", "--csv", str(tmp_path)]) == 0
        csv_path = tmp_path / "fig1.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "stack_fraction" in header

    def test_csv_written_for_fig2(self, tmp_path, capsys):
        assert main(["fig2", "--ops", "3000", "--csv", str(tmp_path)]) == 0
        header = (tmp_path / "fig2.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "workload", "total_writes", "total_beyond", "beyond_fraction"
        ]

    def test_csv_skipped_for_non_tabular(self, tmp_path, capsys):
        from repro.cli import main

        # Two tables in one figure: no single row schema to export.
        assert main(["ablations", "--ops", "8000", "--csv", str(tmp_path)]) == 0
        assert not (tmp_path / "ablations.csv").exists()
