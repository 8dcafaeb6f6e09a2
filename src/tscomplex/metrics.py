"""The metric table and the shared analysis configuration.

A metric is one row of ``_METRICS``: its parameters drawn from the config,
its evaluator, its test's tail and its map onto the comparison scale.
Other modules read a metric's row through ``row_of`` instead of testing
its name; a name outside the table, which a report file may carry, reads
as an entropy on the plain min-max scale. ``build_metrics`` binds each
selected metric to parameters the config checked when it was built, and
the config keeps what those checks return. Permutation entropy's n and
the permutation test's t are plain ints. The scale list, the metric names
and the pattern lengths n and t are checked by the ``check_*`` functions
of ``entropy``, which its sweep and ordinal kernel share. The single path
that applies the metrics is ``entropy.mse_sweeps``, which records a
failed evaluation as a NaN cell and shares the (series, scale) cells out
over threads it starts and joins, whatever the metrics. A test's result carries its statistic, df
and p-value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import DataError, Metric, MetricResult, Series
from .entropy import (SampEnParams, check_metric_names, check_pattern_length, check_scales,
                      permutation_entropy, sample_entropy)
from .randomness import (RunsVariant, check_runs_variant, chi_square_sf, permutation_test,
                         runs_p_value, runs_test)

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
    tail: Callable | None = None  # a test's (statistic, df) -> p-value; None for an entropy
    to_scale: Callable = float    # a score on the comparison scale, before its min-max step


_METRICS = {
    "sampen": MetricRow(lambda c: SampEnParams(m=c.m, r_factor=c.r_factor, r_mode=c.r_mode),
                        lambda x, params: MetricResult("sampen", sample_entropy(x, params).value)),
    "permen": MetricRow(lambda c: check_pattern_length(c.n, "tuple size"),
                        lambda x, params: MetricResult("permen", permutation_entropy(x, params))),
    "permtest": MetricRow(lambda c: check_pattern_length(c.t, "group size"), _permtest,
                          chi_square_sf, _inv_ln),
    "runstest": MetricRow(lambda c: check_runs_variant(c.runs_variant), _runstest,
                          runs_p_value, _inv_abs),
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

    Construction checks every parameter, selected metric or not, the
    metric names (a sequence, not a string, each known, none twice) and
    the scale list, raising ValueError: a config that exists is valid. The
    names and the scales go through the checks ``entropy.mse_sweeps``
    makes too (``check_metric_names``, ``check_scales``), and n and t
    through the one check of an ordinal pattern length
    (``check_pattern_length``, a whole number in [2, 8]). The config keeps
    what the checks return, which its metrics use: m, n and t as ints,
    r_factor as a float, the names and the scales as tuples, so a config
    is hashable.
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
        metrics = check_metric_names(self.metrics)
        unknown = [m for m in metrics if m not in METRIC_NAMES]
        if unknown:
            raise ValueError(f"unknown metric(s): {', '.join(unknown)}")
        params = {name: row.params_of(self) for name, row in _METRICS.items()}
        for field, value in (("metrics", metrics), ("m", params["sampen"].m),
                             ("r_factor", params["sampen"].r_factor), ("n", params["permen"]),
                             ("t", params["permtest"]), ("scales", check_scales(self.scales))):
            object.__setattr__(self, field, value)


def build_metrics(config: AnalysisConfig) -> list[Metric]:
    """Metrics selected by the config, in the config's order, each bound to
    its parameters, built once here."""
    metrics = []
    for name in config.metrics:
        row = _METRICS[name]
        metrics.append(Metric(name, partial(row.evaluate, params=row.params_of(config))))
    return metrics
