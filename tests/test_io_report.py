"""Series-file ingestion and report serialization."""
import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscomplex import (
    DataError,
    ExperimentReport,
    MetricResult,
    ReportRow,
    Series,
    read_report_json,
    read_series,
    render_report,
    write_series,
)


class TestReadSeries:
    def test_plain_lines(self, tmp_path):
        p = tmp_path / "vals.txt"
        p.write_text("1.0\n2.5\n-3\n")
        s = read_series(p)
        assert s.values.tolist() == [1.0, 2.5, -3.0]
        assert s.label == "vals"

    def test_blank_lines_and_crlf(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"1.5\r\n\r\n2.5\r\n")
        assert read_series(p).values.tolist() == [1.5, 2.5]

    def test_lone_cr_ends_a_line(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"1.5\r\r2.5\r-3")
        assert read_series(p).values.tolist() == [1.5, 2.5, -3.0]

    def test_typographic_minus(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1.0\n−3\n", encoding="utf-8")
        assert read_series(p).values.tolist() == [1.0, -3.0]

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\nabc\n2.0\n")
        with pytest.raises(DataError, match="line 2"):
            read_series(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, bad):
        p = tmp_path / "bad.txt"
        p.write_text(f"1.0\n{bad}\n2.0\n")
        with pytest.raises(DataError) as exc_info:
            read_series(p)
        assert str(exc_info.value) == f"{p}: non-finite value {bad!r} on line 2"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            read_series(tmp_path / "nope.txt")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n\n")
        with pytest.raises(DataError, match="no values"):
            read_series(p)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1e300, max_value=1e300),
                           min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_write_read_round_trip_exact(self, tmp_path_factory, values):
        p = tmp_path_factory.mktemp("rt") / "series.txt"
        write_series(Series(values), p)
        back = read_series(p)
        assert np.array_equal(back.values, np.asarray(values, dtype=float))


def _report():
    report = ExperimentReport()
    report.add(ReportRow("uniform", 1, "sampen", 2.2388081))
    report.add(ReportRow("uniform", 1, "permtest", 108.3935, statistic=108.3935,
                         df=119.0, p_value=0.747123, warnings=("low expected count",)))
    return report


class TestReport:
    def test_csv_golden(self):
        got = render_report(_report(), "csv")
        assert got == (
            "label,scale,metric,value,statistic,df,p_value,warnings\n"
            "uniform,1,sampen,2.23881,,,,\n"
            "uniform,1,permtest,108.394,108.394,119,0.747123,low expected count\n"
        )

    def test_csv_quotes_commas(self):
        report = ExperimentReport()
        report.add(ReportRow("a,b", 1, "sampen", 1.0))
        assert '"a,b"' in render_report(report, "csv")

    @pytest.mark.parametrize("label", ["a\rb", "a\nb", "a\r\nb", 'a"b'])
    def test_csv_quoted_label_reads_back_as_one_record(self, label):
        report = ExperimentReport()
        report.add(ReportRow(label, 1, "permen", 0.5))
        text = render_report(report, "csv")
        records = list(csv.reader(io.StringIO(text, newline="")))
        assert records[1] == [label, "1", "permen", "0.5", "", "", "", ""]

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(render_report(_report(), "json"), encoding="utf-8")
        back = read_report_json(p)
        assert back.rows == _report().rows

    def test_json_encodes_failed_cells_as_null(self, tmp_path):
        report = ExperimentReport()
        report.add(ReportRow("x", 1, "sampen", float("nan"), warnings=("error: boom",)))
        p = tmp_path / "r.json"
        p.write_text(render_report(report, "json"), encoding="utf-8")
        assert '"value": null' in p.read_text()
        back = read_report_json(p)
        assert math.isnan(back.rows[0].value)
        assert back.rows[0].warnings == ("error: boom",)

    def test_duplicate_key_rejected(self):
        report = _report()
        with pytest.raises(DataError, match="duplicate"):
            report.add(ReportRow("uniform", 1, "sampen", 9.9))

    def test_unknown_format_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown report format: 'tsv'"):
            render_report(_report(), "tsv")

    def test_empty_report_rejected(self):
        with pytest.raises(DataError, match="empty report"):
            render_report(ExperimentReport(), "csv")

    def test_row_is_a_result_behind_label_and_scale(self):
        # add_result passes every result field through by name, and the JSON
        # writer emits every row field: one field list serves both paths
        row_fields = [(f.name, f.type, f.default) for f in dataclasses.fields(ReportRow)]
        result_fields = [(f.name, f.type, f.default) for f in dataclasses.fields(MetricResult)]
        assert [name for name, _, _ in row_fields[:2]] == ["label", "scale"]
        assert row_fields[2:] == result_fields

    def test_six_significant_digits(self):
        report = ExperimentReport()
        report.add(ReportRow("x", 1, "permtest", 5799.65201, statistic=5799.65201,
                             df=119.0, p_value=1.234567e-12))
        csv = render_report(report, "csv")
        assert "5799.65" in csv and "1.23457e-12" in csv
