"""tscomplex: entropy measures and randomness tests for univariate series.

Scores: sample entropy, normalized permutation entropy; tests: ordinal
permutation test, runs test (median and up/down variants); plus multi-scale
sweeps, seeded generators, file ingestion, report/plot emission, and a
harness that regenerates the reference experiment tables.
"""
from .core import (
    DataError,
    Metric,
    MetricResult,
    NumericalError,
    Series,
    coarse_grain,
    sample_sd,
)
from .entropy import (
    MseProfile,
    SampEnParams,
    SampEnResult,
    mse_sweep,
    mse_sweeps,
    ordinal_pattern_counts,
    permutation_entropy,
    sample_entropy,
)
from .randomness import (
    PermutationTestResult,
    RunsTestResult,
    TTestResult,
    chi_square_sf,
    normal_sf,
    permutation_test,
    runs_test,
    welch_t_test,
)
from .generators import (
    GeneratorSpec,
    add_noise,
    arma_simulate,
    build_series,
    derive_rng,
    derive_seed,
    generate_iid,
    logistic_map,
)
from .metrics import AnalysisConfig, build_metrics
from .seriesio import read_series, render_series, write_series
from .report import ExperimentReport, ReportRow, read_report_json, render_report
from .plots import render_plot
from .experiments import compare_groups, reproduce

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "DataError",
    "ExperimentReport",
    "GeneratorSpec",
    "Metric",
    "MetricResult",
    "MseProfile",
    "NumericalError",
    "PermutationTestResult",
    "ReportRow",
    "RunsTestResult",
    "SampEnParams",
    "SampEnResult",
    "Series",
    "TTestResult",
    "add_noise",
    "arma_simulate",
    "build_metrics",
    "build_series",
    "chi_square_sf",
    "coarse_grain",
    "compare_groups",
    "derive_rng",
    "derive_seed",
    "generate_iid",
    "logistic_map",
    "mse_sweep",
    "mse_sweeps",
    "normal_sf",
    "ordinal_pattern_counts",
    "permutation_entropy",
    "permutation_test",
    "read_report_json",
    "read_series",
    "render_plot",
    "render_report",
    "render_series",
    "reproduce",
    "runs_test",
    "sample_entropy",
    "sample_sd",
    "welch_t_test",
    "write_series",
]
