"""Result aggregation and rendering for the experiment harness."""

from repro.analysis.report import render_series, render_table
from repro.analysis.endurance import EnduranceReport, endurance_report
from repro.analysis.export import export_experiment, write_csv

__all__ = [
    "render_table",
    "render_series",
    "EnduranceReport",
    "endurance_report",
    "export_experiment",
    "write_csv",
]
