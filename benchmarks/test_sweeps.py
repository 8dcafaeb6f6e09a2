"""Timings of sweeps of several series whose metrics all hold the
interpreter lock: the ordinal-pattern and runs metrics, without sample
entropy.

Run from the repository root; the suite lives outside the tier-1
``testpaths``, so it runs only when named:

    python -m pytest benchmarks/test_sweeps.py --benchmark-json BENCH_sweeps.json

Each round is one ``mse_sweeps`` of 30 uniform series over the default
scales 1,2,3,4,5,10, as ``reproduce table1``'s permen ladder and
``arma_table5``'s runs ladder sweep many short series. Such a sweep runs in
the calling thread, so its time should not depend on the CPU count: on a
thread pool the workers would pass the interpreter lock back and forth.
Record the CPU count (``nproc``) with the timings; ``taskset -c 0`` times
one CPU.
"""
import pytest

from tscomplex import AnalysisConfig, build_metrics, generate_iid, mse_sweeps
from tscomplex.metrics import DEFAULT_SCALES

SERIES = 30
METRICS = {"permen": ("permen",), "all3": ("permen", "permtest", "runstest")}


@pytest.mark.parametrize("n", [1000, 4096])
@pytest.mark.parametrize("names", list(METRICS))
def test_lock_holding_sweep(benchmark, names, n):
    series = [generate_iid("uniform", n, seed=i) for i in range(SERIES)]
    metrics = build_metrics(AnalysisConfig(metrics=METRICS[names]))
    profiles = benchmark(mse_sweeps, series, DEFAULT_SCALES, metrics)
    assert len(profiles) == SERIES
