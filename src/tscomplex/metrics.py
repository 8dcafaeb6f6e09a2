"""The metric table and the shared analysis configuration.

``build_metrics`` turns a config into named evaluators, one per selected
metric, each bound to parameters the config checked when it was built.
The single path that applies them is ``entropy.mse_sweeps``: it
coarse-grains each series, evaluates every metric per scale and records a
failed evaluation as a NaN cell; scale-1 scoring is a sweep over ``(1,)``,
and ``entropy.mse_sweep`` is its one-series form. Different series are
swept concurrently on one thread pool, and the pair counts of sample
entropy are split over the CPUs left idle, so an evaluator must not call a
sweep itself. Each metric declares whether it holds the interpreter lock;
a sweep of lock-holding metrics only runs in the calling thread.
A result carries the statistic/df/p-value fields when the underlying score
is a hypothesis test.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import Metric, MetricResult, Series
from .entropy import PermEnParams, SampEnParams, permutation_entropy, sample_entropy
from .randomness import (RunsVariant, check_group_size, check_runs_variant,
                         permutation_test, runs_test)

__all__ = [
    "AnalysisConfig",
    "build_metrics",
    "METRIC_NAMES",
]

METRIC_NAMES = ("sampen", "permen", "permtest", "runstest")

DEFAULT_SCALES = (1, 2, 3, 4, 5, 10)


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
        for params_of, _, _ in _METRICS.values():
            params_of(self)
        if not self.scales:
            raise ValueError("empty scale list")
        if self.scales[0] < 1:
            raise ValueError(f"scales must be >= 1, got {self.scales[0]}")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly increasing")


def _sampen(series: Series, params: SampEnParams) -> MetricResult:
    return MetricResult(metric="sampen", value=sample_entropy(series, params).value)


def _permen(series: Series, params: PermEnParams) -> MetricResult:
    return MetricResult(metric="permen", value=permutation_entropy(series, params))


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


# name -> (the metric's parameters drawn from the config, its evaluator,
# whether it holds the interpreter lock: only the sample-entropy kd-tree
# releases it, the other three run short numpy steps between Python code)
_METRICS = {
    "sampen": (lambda c: SampEnParams(m=c.m, r_factor=c.r_factor, r_mode=c.r_mode), _sampen,
               False),
    "permen": (lambda c: PermEnParams(n=c.n), _permen, True),
    "permtest": (lambda c: check_group_size(c.t), _permtest, True),
    "runstest": (lambda c: check_runs_variant(c.runs_variant), _runstest, True),
}


def build_metrics(config: AnalysisConfig) -> list[Metric]:
    """Metrics selected by the config, in the config's order, each bound to
    its parameters, built once here."""
    metrics = []
    for name in config.metrics:
        params_of, evaluate, holds_lock = _METRICS[name]
        metrics.append(Metric(name, partial(evaluate, params=params_of(config)), holds_lock))
    return metrics
