"""The metric table and the shared analysis configuration.

A metric is one row of ``_METRICS``: its parameters drawn from the config,
its evaluator, whether it holds the interpreter lock, its test's tail and
its map onto the comparison scale. Other modules read a metric's row
through ``row_of`` instead of testing its name; a name outside the table,
which a report file may carry, reads as an entropy on the plain min-max
scale. ``build_metrics`` binds each selected metric to parameters the
config checked when it was built. The single path that applies them is
``entropy.mse_sweeps``, which records a failed evaluation as a NaN cell
and shares the (series, scale) cells out over threads it starts and joins;
a sweep of lock-holding metrics runs in the calling thread. A test's
result carries its statistic, df and p-value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import DataError, Metric, MetricResult, Series
from .entropy import PermEnParams, SampEnParams, permutation_entropy, sample_entropy
from .randomness import (RunsVariant, check_group_size, check_runs_variant, chi_square_sf,
                         normal_sf, permutation_test, runs_test)

__all__ = [
    "AnalysisConfig",
    "build_metrics",
    "METRIC_NAMES",
]


def _permtest(series: Series, params: int) -> MetricResult:
    res = permutation_test(series, params)
    warnings = ()
    if res.low_expected_warning:
        warnings = (f"low expected count ({res.group_count}/{res.df + 1} < 5 per category)",)
    return MetricResult(
        metric="permtest",
        value=res.chi_square,
        statistic=res.chi_square,
        df=float(res.df),
        p_value=res.p_value,
        warnings=warnings,
    )


def _runstest(series: Series, params: RunsVariant) -> MetricResult:
    res = runs_test(series, params)
    return MetricResult(metric="runstest", value=res.z, statistic=res.z, p_value=res.p_value)


def _inv_ln(chi_square: float) -> float:
    if chi_square <= 1.0:  # NaN fails no comparison and stays NaN
        raise DataError(f"rescale needs permtest scores > 1, got {chi_square}")
    return float(1.0 / np.log(chi_square))


def _inv_abs(z: float) -> float:
    if z == 0.0:
        raise DataError("rescale needs nonzero runstest scores, got 0")
    return 1.0 / abs(z)


class MetricRow(NamedTuple):
    params_of: Callable  # the config -> the metric's parameters, checked
    evaluate: Callable   # (series, params=...) -> MetricResult
    holds_lock: bool = False  # sampen's kd-tree frees it; the rest run short numpy steps
    tail: Callable | None = None  # a test's (statistic, df) -> p-value; None for an entropy
    to_scale: Callable = float    # a score on the comparison scale, before its min-max step


_METRICS = {
    "sampen": MetricRow(lambda c: SampEnParams(m=c.m, r_factor=c.r_factor, r_mode=c.r_mode),
                        lambda x, params: MetricResult("sampen", sample_entropy(x, params).value)),
    "permen": MetricRow(lambda c: PermEnParams(n=c.n), lambda x, params: MetricResult(
        "permen", permutation_entropy(x, params)), True),
    "permtest": MetricRow(lambda c: check_group_size(c.t), _permtest, True,
                          lambda s, df: chi_square_sf(s, int(df)), _inv_ln),
    "runstest": MetricRow(lambda c: check_runs_variant(c.runs_variant), _runstest, True,
                          lambda s, df: 2.0 * normal_sf(abs(s)), _inv_abs),
}

METRIC_NAMES = tuple(_METRICS)

DEFAULT_SCALES = (1, 2, 3, 4, 5, 10)


def row_of(name: str) -> MetricRow:
    """The table's row for ``name``; any other name gets a row with the defaults."""
    return _METRICS.get(name, MetricRow(None, None))


@dataclass(frozen=True)
class AnalysisConfig:
    """Metric selection and parameters; defaults are the experiment battery's
    conventions (m=2, r=0.2*SD, n=5, t=5, median runs test, scales 1..10).

    Construction checks every parameter, selected metric or not, and the
    scale list, raising ValueError: a config that exists is valid.
    """

    metrics: tuple[str, ...] = METRIC_NAMES
    m: int = 2
    r_factor: float = 0.2
    r_mode: str = "per_input_sd"
    n: int = 5
    t: int = 5
    runs_variant: RunsVariant = "above_below_median"
    scales: tuple[int, ...] = DEFAULT_SCALES

    def __post_init__(self):
        unknown = [m for m in self.metrics if m not in METRIC_NAMES]
        if unknown:
            raise ValueError(f"unknown metric(s): {', '.join(unknown)}")
        for row in _METRICS.values():
            row.params_of(self)
        if not self.scales:
            raise ValueError("empty scale list")
        if self.scales[0] < 1:
            raise ValueError(f"scales must be >= 1, got {self.scales[0]}")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly increasing")


def build_metrics(config: AnalysisConfig) -> list[Metric]:
    """Metrics selected by the config, in the config's order, each bound to
    its parameters, built once here."""
    metrics = []
    for name in config.metrics:
        params_of, evaluate, holds_lock = _METRICS[name][:3]
        metrics.append(Metric(name, partial(evaluate, params=params_of(config)), holds_lock))
    return metrics
