"""Tests for CSV result export."""

import csv
from dataclasses import dataclass

import pytest

from repro.analysis.export import export_experiment, rows_to_dicts, write_csv


@dataclass(frozen=True)
class _Row:
    workload: str
    value: float
    series: tuple


ROWS = [_Row("a", 1.5, (1, 2)), _Row("b", 2.0, (3,))]


class TestConversion:
    def test_dataclass_rows(self):
        dicts = rows_to_dicts(ROWS)
        assert dicts[0]["workload"] == "a"
        assert dicts[1]["value"] == 2.0

    def test_dict_rows_pass_through(self):
        assert rows_to_dicts([{"x": 1}]) == [{"x": 1}]

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            rows_to_dicts([42])


class TestWriting:
    def test_writes_readable_csv(self, tmp_path):
        path = write_csv(ROWS, tmp_path / "out")
        assert path.suffix == ".csv"
        with open(path) as handle:
            records = list(csv.DictReader(handle))
        assert records[0]["workload"] == "a"
        assert records[0]["series"] == "1;2"
        assert float(records[1]["value"]) == 2.0

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "empty.csv")

    def test_export_experiment_layout(self, tmp_path):
        path = export_experiment("fig_x", ROWS, out_dir=tmp_path / "results")
        assert path == tmp_path / "results" / "fig_x.csv"
        assert path.exists()

    def test_real_experiment_rows_export(self, tmp_path):
        from repro.harness.figures import run_inline

        rows = run_inline("fig1", 5_000).raw_rows
        path = export_experiment("fig1", rows, out_dir=tmp_path)
        with open(path) as handle:
            records = list(csv.DictReader(handle))
        assert {r["workload"] for r in records} == {
            "gapbs_pr", "g500_sssp", "ycsb_mem"
        }
