"""Self-contained deterministic SVG charts for experiment reports.

Three kinds: ``line_by_scale`` (metric value vs scale factor, one line per
label/metric), ``grouped_bars`` (one bar per label/metric of a report at
one scale, raw values or, with ``rescale``, the comparison scale below),
and ``box_by_group`` (value distributions per group and metric; a row
label of the form ``group:member`` contributes to box group ``group``).

The comparison scale puts the four metrics side by side on [0, 1]: the
metric table's row maps each score (a chi-square to 1/ln(chi-square), a
runs-test z to 1/|z|), then each metric is min-max scaled over its finite
cells (0.5 when those are all equal). A failed (NaN) cell draws no bar.

Output is byte-deterministic for identical reports: no timestamps, no
generated ids, fixed float formatting.
"""
from __future__ import annotations

import math
from typing import Callable, Literal

import numpy as np

from .core import DataError
from .metrics import row_of
from .report import ExperimentReport

__all__ = ["render_plot"]

PlotKind = Literal["line_by_scale", "grouped_bars", "box_by_group"]

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 168, 28, 52
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB

_LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
                "#9467bd", "#8c564b", "#17becf", "#7f7f7f")
# box plots follow the group-comparison convention: first group red, second blue
_BOX_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e")


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


class _Svg:
    def __init__(self, width: int, height: int):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width:.2f}"/>')

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" stroke="{stroke}"/>')

    def circle(self, cx, cy, r, fill):
        self.parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def polyline(self, points, stroke, width=1.5):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.2f}"/>')

    def text(self, x, y, content, size=11, anchor="start", fill="#000000"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" text-anchor="{anchor}" '
            f'fill="{fill}">{_esc(content)}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _frame(values: list[float]) -> tuple[_Svg, Callable[[float], float]]:
    """A canvas with the y axis over the finite ``values``, padded by 5 %,
    and the x axis line, and the map from a value to its y."""
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise DataError("no finite values to plot")
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def to_y(v):
        return _MT + _PH * (1.0 - (v - lo) / (hi - lo))

    svg = _Svg(_W, _H)
    svg.line(_ML, _MT, _ML, _MT + _PH, "#333333")
    for tick in np.linspace(lo, hi, 5):
        y = to_y(tick)
        svg.line(_ML - 4, y, _ML, y, "#333333")
        svg.text(_ML - 8, y + 3.5, f"{tick:.4g}", size=10, anchor="end")
    svg.line(_ML, _MT + _PH, _ML + _PW, _MT + _PH, "#333333")
    return svg, to_y


def _swatch_legend(svg: _Svg, names: list[str], colors: tuple[str, ...]) -> None:
    """A colored square and a name per entry, down the right margin."""
    for i, name in enumerate(names):
        ly = _MT + 14 + 16 * i
        svg.rect(_ML + _PW + 10, ly - 9, 12, 10, colors[i % len(colors)])
        svg.text(_ML + _PW + 28, ly, name, size=10)


def render_plot(report: ExperimentReport, kind: PlotKind, *, rescale: bool = False) -> str:
    """The chart as SVG text; ``rescale`` draws ``grouped_bars`` on the
    comparison scale and is an error with the other kinds."""
    if rescale and kind != "grouped_bars":
        raise ValueError(f"rescale applies to grouped_bars only, not {kind}")
    if not report.rows:
        raise DataError("empty report")
    if kind == "line_by_scale":
        return _render_lines(report)
    if kind == "grouped_bars":
        return _render_bars(report, rescale)
    if kind == "box_by_group":
        return _render_boxes(report)
    raise ValueError(f"unknown plot kind: {kind!r}")


def _comparison_scale(report: ExperimentReport) -> list[float]:
    """Each row's value on the comparison scale, per metric over all of the
    report's rows for that metric."""
    idxs_of: dict[str, list[int]] = {}
    for i, row in enumerate(report.rows):
        idxs_of.setdefault(row.metric, []).append(i)
    out = [math.nan] * len(report.rows)
    for metric, idxs in idxs_of.items():
        raw = [row_of(metric).to_scale(report.rows[i].value) for i in idxs]
        finite = [v for v in raw if math.isfinite(v)]
        lo, hi = min(finite, default=0.0), max(finite, default=0.0)
        for i, v in zip(idxs, raw):
            if math.isfinite(v):
                out[i] = (v - lo) / (hi - lo) if hi > lo else 0.5
    return out


def _render_lines(report: ExperimentReport) -> str:
    scales = sorted({r.scale for r in report.rows})
    if len(scales) < 2:
        raise DataError("line_by_scale needs rows at two or more scales")
    svg, to_y = _frame([r.value for r in report.rows])
    # x axis positioned by scale value, not index
    smin, smax = scales[0], scales[-1]
    span = (smax - smin) or 1

    def to_x(s):
        return _ML + _PW * (s - smin) / span

    for s in scales:
        x = to_x(s)
        svg.line(x, _MT + _PH, x, _MT + _PH + 4, "#333333")
        svg.text(x, _MT + _PH + 16, str(s), size=10, anchor="middle")
    svg.text(_ML + _PW / 2, _H - 12, "scale factor", size=11, anchor="middle")

    keys = list(dict.fromkeys((r.label, r.metric) for r in report.rows))
    multi_metric = len({m for _, m in keys}) > 1
    for i, (label, metric) in enumerate(keys):
        pts = [(to_x(r.scale), to_y(r.value)) for r in report.rows
               if r.label == label and r.metric == metric and math.isfinite(r.value)]
        color = _LINE_COLORS[i % len(_LINE_COLORS)]
        svg.polyline(pts, color)
        for x, y in pts:
            svg.circle(x, y, 2.4, color)
        name = f"{label} / {metric}" if multi_metric else label
        ly = _MT + 14 + 16 * i
        svg.line(_ML + _PW + 10, ly - 4, _ML + _PW + 30, ly - 4, color, 2.0)
        svg.text(_ML + _PW + 36, ly, name, size=10)
    return svg.render()


def _render_bars(report: ExperimentReport, rescale: bool) -> str:
    if len({r.scale for r in report.rows}) > 1:
        raise DataError("grouped_bars needs rows at a single scale")
    labels = list(dict.fromkeys(r.label for r in report.rows))
    metrics = list(dict.fromkeys(r.metric for r in report.rows))
    if rescale:
        values, y_label = _comparison_scale(report), "rescaled"
    else:
        values, y_label = [r.value for r in report.rows], "value"
    # one bar per (label, metric): the report's keys are unique at one scale
    heights = {(row.label, row.metric): float(v) for row, v in zip(report.rows, values)}
    svg, to_y = _frame([*heights.values(), 0.0])
    group_w = _PW / len(labels)
    bar_w = group_w * 0.8 / max(len(metrics), 1)
    y0 = to_y(0.0)
    for gi, label in enumerate(labels):
        gx = _ML + gi * group_w
        svg.text(gx + group_w / 2, _MT + _PH + 16, label, size=10, anchor="middle")
        for mi, metric in enumerate(metrics):
            v = heights.get((label, metric))
            if v is None or not math.isfinite(v):
                continue
            x = gx + group_w * 0.1 + mi * bar_w
            y = to_y(v)
            top, height = (y, y0 - y) if v >= 0 else (y0, y - y0)
            svg.rect(x, top, bar_w * 0.92, height, _LINE_COLORS[mi % len(_LINE_COLORS)])
    _swatch_legend(svg, metrics, _LINE_COLORS)
    svg.text(14, _MT + 10, y_label, size=10)
    return svg.render()


def _group_of(label: str) -> str:
    return label.split(":", 1)[0]


def _render_boxes(report: ExperimentReport) -> str:
    groups: dict[tuple[str, str], list[float]] = {}
    for r in report.rows:
        if math.isfinite(r.value):
            groups.setdefault((_group_of(r.label), r.metric), []).append(r.value)
    group_names = list(dict.fromkeys(g for g, _ in groups))
    metric_names = list(dict.fromkeys(m for _, m in groups))
    svg, to_y = _frame([v for vals in groups.values() for v in vals])
    slots = [(m, g) for m in metric_names for g in group_names if (g, m) in groups]
    slot_w = _PW / len(slots)
    for si, (metric, group) in enumerate(slots):
        vals = np.array(sorted(groups[(group, metric)]))
        q1, med, q3 = (float(np.percentile(vals, q)) for q in (25, 50, 75))
        iqr = q3 - q1
        lo_w = float(vals[vals >= q1 - 1.5 * iqr].min())
        hi_w = float(vals[vals <= q3 + 1.5 * iqr].max())
        color = _BOX_COLORS[group_names.index(group) % len(_BOX_COLORS)]
        cx = _ML + slot_w * (si + 0.5)
        bw = slot_w * 0.5
        svg.line(cx, to_y(lo_w), cx, to_y(q1), color)
        svg.line(cx, to_y(q3), cx, to_y(hi_w), color)
        svg.line(cx - bw / 4, to_y(lo_w), cx + bw / 4, to_y(lo_w), color)
        svg.line(cx - bw / 4, to_y(hi_w), cx + bw / 4, to_y(hi_w), color)
        svg.rect(cx - bw / 2, to_y(q3), bw, to_y(q1) - to_y(q3), "none", color)
        svg.line(cx - bw / 2, to_y(med), cx + bw / 2, to_y(med), color, 2.0)
        for v in vals[(vals < q1 - 1.5 * iqr) | (vals > q3 + 1.5 * iqr)]:
            svg.circle(cx, to_y(float(v)), 2.0, color)
        label = f"{metric}" if len(group_names) > 1 else f"{group} {metric}"
        svg.text(cx, _MT + _PH + 16, label, size=10, anchor="middle")
    _swatch_legend(svg, group_names, _BOX_COLORS)
    return svg.render()
