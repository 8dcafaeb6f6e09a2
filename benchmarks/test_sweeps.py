"""Timings of sweeps of several series with the ordinal-pattern and runs
metrics only, without sample entropy.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_sweeps.py --benchmark-json BENCH_sweeps.json

Each round is one ``mse_sweeps`` of uniform series over the default scales
1,2,3,4,5,10: 30 short series (1000 and 4096 points), as ``reproduce
table1``'s permen ladder and ``arma_table5``'s runs ladder sweep many short
series, or 4 long ones (65 536 points), as the ``scan`` workload scores
long generated series. Every sweep of several cells shares them over the
CPUs in the process's affinity set, whatever its metrics. These metrics
hold the interpreter lock for most of a short cell, so on short series
two threads mostly hand the lock back and forth and take longer than one;
a long cell spends more of its time in numpy loops that release the lock,
and there two threads take about as long as one. Record the CPU count
(``nproc``) with the timings; ``taskset -c 0`` times one CPU, where every
cell runs in the calling thread.
"""
import pytest

from tscomplex import AnalysisConfig, build_metrics, generate_iid, mse_sweeps
from tscomplex.metrics import DEFAULT_SCALES

METRICS = {"permen": ("permen",), "all3": ("permen", "permtest", "runstest")}
SIZES = {"30x1000": (30, 1000), "30x4096": (30, 4096), "4x65536": (4, 65536)}


@pytest.mark.parametrize("size", list(SIZES))
@pytest.mark.parametrize("names", list(METRICS))
def test_ordinal_and_runs_sweep(benchmark, names, size):
    count, n = SIZES[size]
    series = [generate_iid("uniform", n, seed=i) for i in range(count)]
    metrics = build_metrics(AnalysisConfig(metrics=METRICS[names]))
    profiles = benchmark(mse_sweeps, series, DEFAULT_SCALES, metrics)
    assert len(profiles) == count
