"""Tests for the plain-text chart renderers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import charts
from repro.analysis.charts import histogram, line_chart, sparkline


class TestLineChart:
    def test_renders_points_and_legend(self):
        out = line_chart(
            {"tcp": [(0, 0), (1, 1)], "tfrc": [(0, 1), (1, 0)]},
            title="demo", x_label="time", y_label="rate",
        )
        assert "demo" in out
        assert "* tcp" in out
        assert "o tfrc" in out
        assert "rate vs time" in out
        assert "*" in out and "o" in out

    def test_empty_series_reports_no_data(self):
        assert "(no data)" in line_chart({"a": []})

    def test_nan_points_filtered(self):
        out = line_chart({"a": [(0, math.nan), (1, 2), (2, 3)]})
        assert "(no data)" not in out

    def test_constant_series_does_not_divide_by_zero(self):
        out = line_chart({"flat": [(0, 5), (1, 5), (2, 5)]})
        assert "*" in out

    def test_log_x_axis(self):
        out = line_chart({"a": [(0.1, 1), (1, 2), (10, 3)]}, log_x=True)
        assert "0.1" in out and "10" in out

    def test_log_x_with_no_positive_points(self):
        out = line_chart({"a": [(0, 1), (-1, 2)]}, log_x=True)
        assert "no data" in out

    def test_axis_labels_show_bounds(self):
        out = line_chart({"a": [(2.0, 10.0), (4.0, 30.0)]})
        assert "10" in out and "30" in out
        assert "2" in out and "4" in out

    @given(points=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        min_size=1, max_size=50,
    ))
    def test_arbitrary_finite_points_never_crash(self, points):
        out = line_chart({"s": points})
        assert isinstance(out, str) and out

    @pytest.mark.parametrize("size", [(64, 16), (40, 8)])
    def test_grid_size_respected(self, monkeypatch, size):
        monkeypatch.setattr(charts, "CHART_WIDTH", size[0])
        monkeypatch.setattr(charts, "CHART_HEIGHT", size[1])
        out = line_chart({"a": [(0, 0), (1, 1)]})
        plot_rows = [ln for ln in out.splitlines() if "|" in ln]
        assert len(plot_rows) == size[1]
        for row in plot_rows:
            assert len(row.split("|", 1)[1]) == size[0]


class TestHistogram:
    def test_bars_scale_to_peak(self, monkeypatch):
        monkeypatch.setattr(charts, "BAR_WIDTH", 10)
        out = histogram(["a", "b"], [1.0, 2.0])
        lines = out.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            histogram(["a"], [1.0, 2.0])

    def test_empty_reports_no_data(self):
        assert "(no data)" in histogram([], [], title="t")

    def test_zero_values_render_empty_bars(self):
        out = histogram(["z"], [0.0])
        assert "#" not in out

    def test_nan_marked(self):
        out = histogram(["n", "v"], [math.nan, 1.0])
        assert "nan" in out

    def test_value_printed_after_the_bar(self):
        assert histogram(["x"], [3.0]) == "x | " + "#" * 48 + " 3"


class TestSparkline:
    def test_monotone_series_uses_rising_levels(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(line) == 3 and len(set(line)) == 1

    def test_nan_renders_space(self):
        assert " " in sparkline([1.0, math.nan, 2.0])

    def test_all_nan(self):
        assert sparkline([math.nan, math.nan]) == "  "

    def test_width_condenses(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1e9, max_value=1e9),
                           max_size=100))
    def test_length_matches_input(self, values):
        assert len(sparkline(values)) == len(values)
