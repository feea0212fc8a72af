"""Tests for repro.analysis: report rendering."""

from repro.analysis.report import format_bytes, render_series, render_table


class TestReport:
    def test_render_table_alignment(self):
        text = render_table("T", ["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]
        assert "bbbb" in lines[-1]
        # All data rows have consistent column positions.
        assert lines[-1].index("22") == lines[-2].index("1")

    def test_render_series(self):
        text = render_series("S", {"a": {"x": 1.5}})
        assert "[a]" in text
        assert "x: 1.500" in text

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(4096) == "4.00KiB"
        assert format_bytes(3 * 1024 * 1024) == "3.00MiB"
