"""SVG chart emission: shape contracts and byte determinism."""
import re

import pytest

from tscomplex import DataError, ExperimentReport, ReportRow
from tscomplex.plots import render_plot


def _scale_report():
    report = ExperimentReport()
    for scale, v in zip((1, 2, 3, 4, 5, 10), (2.2, 2.3, 2.1, 2.0, 2.3, 1.8)):
        report.add(ReportRow("uniform", scale, "sampen", v))
    return report


def _bar_report():
    report = ExperimentReport()
    for label in ("series-a", "series-b"):
        for metric, v in zip(("sampen", "permen", "permtest", "runstest"),
                             (2.0, 0.98, 110.0, -0.5)):
            report.add(ReportRow(label, 1, metric, v))
    return report


def _box_report():
    report = ExperimentReport()
    for i, v in enumerate(range(1, 101)):
        report.add(ReportRow(f"a:{i}", 1, "sampen", float(v)))
    for i, v in enumerate(range(101, 201)):
        report.add(ReportRow(f"b:{i}", 1, "sampen", float(v)))
    return report


def test_unknown_kind_is_a_value_error():
    with pytest.raises(ValueError, match="unknown plot kind: 'pie'"):
        render_plot(_scale_report(), "pie")


class TestDeterminism:
    @pytest.mark.parametrize("maker,kind", [
        (_scale_report, "line_by_scale"),
        (_bar_report, "grouped_bars"),
        (_box_report, "box_by_group"),
    ])
    def test_identical_bytes_for_identical_reports(self, maker, kind):
        assert render_plot(maker(), kind) == render_plot(maker(), kind)


class TestLineByScale:
    def test_x_ticks_at_scale_values_not_indices(self):
        svg = render_plot(_scale_report(), "line_by_scale")
        labels = {}
        for m in re.finditer(r'<text x="([0-9.]+)"[^>]*>(\d+)</text>', svg):
            labels[m.group(2)] = float(m.group(1))
        x1, x5, x10 = labels["1"], labels["5"], labels["10"]
        # scale 5 sits at 4/9 of the span, not at 4/5 (index position)
        assert (x5 - x1) / (x10 - x1) == pytest.approx(4 / 9, abs=1e-3)

    def test_equal_values_sit_mid_axis(self):
        report = ExperimentReport()
        for scale in (1, 2, 3):
            report.add(ReportRow("flat", scale, "sampen", 2.0))
        svg = render_plot(report, "line_by_scale")
        # the axis spans the value +- 1, padded by 5 %: [0.9, 3.1]
        ticks = re.findall(r'text-anchor="end"[^>]*>([^<]+)</text>', svg)
        assert ticks == ["0.9", "1.45", "2", "2.55", "3.1"]
        (points,) = re.findall(r'<polyline points="([^"]+)"', svg)
        assert {p.split(",")[1] for p in points.split()} == {"208.00"}

    def test_needs_multiple_scales(self):
        report = ExperimentReport()
        report.add(ReportRow("x", 1, "sampen", 1.0))
        with pytest.raises(DataError, match="two or more scales"):
            render_plot(report, "line_by_scale")

    def test_one_polyline_per_label_metric(self):
        report = _scale_report()
        for scale, v in zip((1, 2, 3, 4, 5, 10), (0.99, 0.97, 0.95, 0.95, 0.92, 0.86)):
            report.add(ReportRow("uniform", scale, "permen", v))
        svg = render_plot(report, "line_by_scale")
        assert svg.count("<polyline") == 2
        assert "uniform / sampen" in svg


class TestGroupedBars:
    def test_two_series_four_metrics_is_eight_bars(self):
        svg = render_plot(_bar_report(), "grouped_bars")
        # background + 8 bars + 4 legend swatches
        assert svg.count("<rect") == 13

    def test_rescale_draws_the_comparison_scale(self):
        svg = render_plot(_bar_report(), "grouped_bars", rescale=True)
        assert ">rescaled</text>" in svg and ">value</text>" not in svg
        # each metric's two equal scores map to 0.5: all 8 bars, at one height
        assert svg.count("<rect") == 13
        bar_tops = re.findall(r'<rect x="[0-9.]+" y="([0-9.]+)"', svg)[1:9]
        assert len(set(bar_tops)) == 1


class TestBoxByGroup:
    def test_two_boxes_with_expected_medians(self):
        svg = render_plot(_box_report(), "box_by_group")
        # a box outline per group (plus 1 background rect and 2 legend swatches)
        assert svg.count("<rect") == 5
        # median lines are the stroke-width 2.00 segments; recover their data
        # coordinates from the fixed plot geometry
        med_lines = re.findall(
            r'<line [^>]*y1="([0-9.]+)" [^>]*y2="\1" stroke="#[0-9a-f]{6}" '
            r'stroke-width="2.00"/>', svg)
        assert len(med_lines) == 2
        lo, hi = 1.0, 200.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        def data_of(y):  # invert the y mapping: y = 28 + 360*(1-(v-lo)/(hi-lo))
            return lo + (hi - lo) * (1.0 - (float(y) - 28.0) / 360.0)
        medians = sorted(data_of(y) for y in med_lines)
        assert medians[0] == pytest.approx(50.5, abs=0.5)
        assert medians[1] == pytest.approx(150.5, abs=0.5)

    def test_group_prefix_parsing(self):
        svg = render_plot(_box_report(), "box_by_group")
        assert ">a</text>" in svg and ">b</text>" in svg

    def test_outlier_is_a_circle(self):
        report = ExperimentReport()
        for i, v in enumerate([*range(1, 20), 100]):
            report.add(ReportRow(f"a:{i}", 1, "sampen", float(v)))
        svg = render_plot(report, "box_by_group")
        (cy,) = re.findall(r'<circle cx="[0-9.]+" cy="([0-9.]+)" r="2.00"', svg)
        # 100 tops the padded range [1 - 4.95, 100 + 4.95] at y = 28 + 360 * 4.95 / 108.9
        assert cy == "44.36"

    def test_empty_values_rejected(self):
        report = ExperimentReport()
        report.add(ReportRow("a:1", 1, "sampen", float("nan")))
        with pytest.raises(DataError, match="no finite values"):
            render_plot(report, "box_by_group")
