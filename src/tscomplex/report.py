"""The experiment report table and its CSV/JSON serialization.

Fixed CSV schema: header ``label,scale,metric,value,statistic,df,p_value,
warnings``, one row per (label, scale, metric) key, numbers printed with 6
significant digits, warnings joined with ';'. The JSON form is an array of
row objects with the same field names at full precision.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .core import DataError, Metric, MetricResult, json_number
from .entropy import MseProfile

__all__ = ["ReportRow", "ExperimentReport", "render_report", "read_report_json"]

CSV_COLUMNS = ("label", "scale", "metric", "value", "statistic", "df", "p_value", "warnings")


@dataclass(frozen=True)
class ReportRow:
    """A cell's ``MetricResult`` behind its ``(label, scale)``: the fields
    after ``scale`` are the result's fields, in its order."""

    label: str
    scale: int
    metric: str
    value: float
    statistic: float | None = None
    df: float | None = None
    p_value: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.label, self.scale, self.metric)


class ExperimentReport:
    """Rows keyed uniquely by (label, scale, metric), in insertion order."""

    def __init__(self) -> None:
        self.rows: list[ReportRow] = []
        self._index: dict[tuple[str, int, str], ReportRow] = {}

    def add(self, row: ReportRow) -> None:
        if row.key in self._index:
            raise DataError(f"duplicate report key: {row.key}")
        self.rows.append(row)
        self._index[row.key] = row

    def add_result(self, label: str, scale: int, result: MetricResult) -> None:
        self.add(ReportRow(label, scale, **vars(result)))

    def add_profile(self, label: str, profile: MseProfile) -> None:
        """One row per cell of a sweep, in scale-major order."""
        for scale in profile.scales:
            for metric in profile.metrics:
                self.add_result(label, scale, profile.results[(scale, metric)])

    def get(self, label: str, scale: int, metric: str) -> ReportRow:
        return self._index[(label, scale, metric)]


def refuse_duplicate_labels(labels: Iterable[str], metrics: Sequence[Metric]) -> None:
    """Raise the DataError that ``ExperimentReport.add`` would raise on the
    first scale-1 row of a label given twice, before any cell is scored."""
    seen: set[str] = set()
    for label in labels:
        if metrics and label in seen:
            raise DataError(f"duplicate report key: {(label, 1, metrics[0].name)}")
        seen.add(label)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _row_cells(row: ReportRow) -> list[str]:
    return [
        row.label,
        str(row.scale),
        row.metric,
        _fmt(row.value),
        _fmt(row.statistic),
        _fmt(row.df),
        _fmt(row.p_value),
        ";".join(row.warnings),
    ]


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_report(report: ExperimentReport, format: Literal["csv", "json"]) -> str:
    """The report as CSV or JSON text."""
    if not report.rows:
        raise DataError("empty report")
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report.rows:
            lines.append(",".join(_csv_quote(c) for c in _row_cells(row)))
        return "\n".join(lines) + "\n"
    if format == "json":
        # NaN marks a failed cell; encode as null to stay strict JSON
        objs = [{**vars(row), "value": None if row.value != row.value else row.value,
                 "warnings": list(row.warnings)} for row in report.rows]
        return json.dumps(objs, indent=2) + "\n"
    raise ValueError(f"unknown report format: {format!r}")


def read_report_json(path: str | Path) -> ExperimentReport:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid report JSON: {exc}") from exc
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(data, list):
        raise DataError(f"{path}: report JSON must be an array of row objects")
    report = ExperimentReport()
    for i, obj in enumerate(data):
        try:
            report.add(_row_from_json(obj))
        except DataError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from None
    return report


def _row_from_json(obj) -> ReportRow:
    if not isinstance(obj, dict):
        raise DataError(f"not an object: {obj!r}")
    for name in ("label", "metric"):
        if not isinstance(obj.get(name), str):
            raise DataError(f"{name} must be a string, got {obj.get(name)!r}")
    if "scale" not in obj:
        raise DataError("missing field 'scale'")
    warnings = obj.get("warnings", [])
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise DataError(f"warnings must be a list of strings, got {warnings!r}")
    # a null value is a failed cell; the other numbers may be null
    numbers = {name: json_number(obj[name], name) for name in ("value", "statistic", "df",
               "p_value") if obj.get(name) is not None}
    return ReportRow(label=obj["label"], scale=json_number(obj["scale"], "scale", int),
                     metric=obj["metric"], **{"value": math.nan, **numbers},
                     warnings=tuple(warnings))
