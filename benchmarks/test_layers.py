"""Per-N timings of two per-sample layers, coarse-graining and the runs test,
and timings of the two output layers, report and SVG rendering.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_layers.py --benchmark-json BENCH_layers.json

``-k "not 64k"`` leaves out the longest series. The test names follow the
layers they time (``core.coarse_grain``, ``randomness.runs_test``).
``coarse_grain`` is timed at scales 2, 3 and 5, where the block sums are
built one column at a time, and at 10, where numpy's ``mean`` sums each
block. The runs test is timed in both variants on tie-free N(0,1) values.

``report.render_report`` (csv and json) and ``plots.render_plot``
(``line_by_scale``) render one report of the ``scan`` workload's size: 24
series, each swept over the default scales with ``permen``, ``permtest``
and ``runstest``, 432 rows. ``grouped_bars`` on the comparison scale draws
one scale, so it renders that report's 72 scale-1 rows.
"""
import numpy as np
import pytest

from tscomplex import (AnalysisConfig, ExperimentReport, Series, build_metrics, coarse_grain,
                       mse_sweeps, render_plot, render_report, runs_test)

SIZES = [pytest.param(n, id=f"{n // 1024}k") for n in (1024, 4096, 16384, 65536)]


def _series(n: int) -> Series:
    return Series(np.random.Generator(np.random.PCG64(n)).normal(size=n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("scale", [2, 3, 5, 10])
def test_coarse_grain(benchmark, scale, n):
    series = _series(n)
    out = benchmark(coarse_grain, series, scale)
    assert len(out) == n // scale


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("variant", ["above_below_median", "up_down"])
def test_runs_test(benchmark, variant, n):
    series = _series(n)
    result = benchmark(runs_test, series, variant)
    assert result.variant == variant


@pytest.fixture(scope="module")
def scan_report() -> ExperimentReport:
    config = AnalysisConfig(metrics=("permen", "permtest", "runstest"))
    series = [Series(np.random.Generator(np.random.PCG64(i)).normal(size=4096), f"spec_{i:02d}")
              for i in range(24)]
    report = ExperimentReport()
    for s, profile in zip(series, mse_sweeps(series, config.scales, build_metrics(config))):
        report.add_profile(s.label, profile)
    assert len(report.rows) == 24 * 6 * 3
    return report


@pytest.mark.parametrize("format", ["csv", "json"])
def test_render_report(benchmark, scan_report, format):
    text = benchmark(render_report, scan_report, format)
    assert "spec_23" in text


def test_render_plot_line_by_scale(benchmark, scan_report):
    svg = benchmark(render_plot, scan_report, "line_by_scale")
    assert "spec_23" in svg


def test_render_plot_grouped_bars_rescale(benchmark, scan_report):
    bars = ExperimentReport()  # one scale, as grouped_bars needs: 72 rows
    for row in scan_report.rows:
        if row.scale == 1:
            bars.add(row)
    svg = benchmark(render_plot, bars, "grouped_bars", rescale=True)
    assert "spec_23" in svg
