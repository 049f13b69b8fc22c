"""Unit tests for the text-report formatting helpers."""

from __future__ import annotations

from repro.analysis.report import (
    format_seconds_cell,
    format_table,
    load_imbalance_table,
    paper_vs_measured,
    speedup_table,
)
from repro.cluster.metrics import ClusterMetrics
from repro.externalmem.iostats import IOStats
from repro.utils import PS_PER_SECOND, format_seconds


class TestSecondsCells:
    def test_paper_style_formatting(self):
        assert format_seconds_cell(164.2) == "2m44.2s"
        assert format_seconds_cell(4644.5) == "1h17m24.5s"
        assert format_seconds_cell(3.6) == "3.6s"

    def test_durations_under_a_tenth_print_in_milliseconds(self):
        for value, text in (
            (0.0, "0.0ms"),
            (0.0423, "42.3ms"),
            (0.0999, "99.9ms"),
            (0.09996, "0.1s"),
            (0.1, "0.1s"),
            (0.3, "0.3s"),
        ):
            assert format_seconds_cell(value) == text

    def test_missing_and_failure_markers(self):
        assert format_seconds_cell(None) == "-"
        assert format_seconds_cell(float("inf")) == "F"

    def test_format_seconds_at_unit_boundaries(self):
        for value, text in (
            (0.5, "0.5s"),
            (59.9, "59.9s"),
            (60.0, "1m00.0s"),
            (3600.0, "1h00m00.0s"),
            (4644.5, "1h17m24.5s"),
        ):
            assert format_seconds(value) == text


class TestFormatTable:
    def test_basic_alignment(self):
        rows = [
            {"Graph": "Twitter", "Time": 12.5},
            {"Graph": "Yahoo", "Time": 300.0},
        ]
        text = format_table(rows, title="Table X")
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "Graph" in lines[1] and "Time" in lines[1]
        assert "Twitter" in lines[3]
        assert "Yahoo" in lines[4]

    def test_explicit_column_selection(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.startswith("c")
        assert "b" not in header

    def test_missing_values_render_dash(self):
        text = format_table([{"a": 1, "b": None}])
        assert "-" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_float_formatting(self):
        text = format_table([{"x": 0.123456}])
        assert "0.123" in text


class TestSpeedupTable:
    def test_speedups_computed(self):
        baseline = {"Twitter": 100.0}
        measured = {"Twitter": {"2 cores": 50.0, "4 cores": 25.0}}
        text = speedup_table(baseline, measured)
        assert "2.0x" in text
        assert "4.0x" in text

    def test_zero_time_safe(self):
        text = speedup_table({"g": 10.0}, {"g": {"x": 0.0}})
        assert "-" in text


class TestPaperVsMeasured:
    def test_renders_rows(self):
        rows = [
            {"experiment": "Table II / Twitter", "paper": "32.8s", "measured": "0.5s"},
        ]
        text = paper_vs_measured(rows, title="Comparison")
        assert "Table II / Twitter" in text
        assert "paper" in text and "measured" in text


class TestLoadImbalanceTable:
    def _metrics(self) -> ClusterMetrics:
        metrics = ClusterMetrics()
        metrics.node(0).add_worker(
            3 * PS_PER_SECOND, 0, IOStats(), chunks_completed=4, chunks_stolen=1
        )
        metrics.node(1).add_worker(
            PS_PER_SECOND, 0, IOStats(), chunks_completed=2, chunks_retried=1
        )
        return metrics

    def test_renders_per_node_and_cluster_rows(self):
        text = load_imbalance_table(self._metrics(), title="Imbalance")
        lines = text.splitlines()
        assert lines[0] == "Imbalance"
        assert "stolen" in lines[1] and "retried" in lines[1]
        assert "cluster" in lines[-1]

    def test_cluster_row_carries_imbalance_ratio(self):
        # worker calc times 3.0 and 1.0 -> max/mean = 1.5
        text = load_imbalance_table(self._metrics())
        assert "imbalance 1.50x" in text
